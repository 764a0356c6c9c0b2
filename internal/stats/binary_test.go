package stats

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"math"
	"testing"
)

// oddFloats are the values a lossy float encoding would change: NaN
// (with a non-default payload), both infinities and negative zero.
var oddFloats = []float64{
	math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 0, 1.5, -math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// sameBits reports whether two summaries hold bit-identical fields.
func sameBits(a, b Summary) bool {
	return a.n == b.n &&
		math.Float64bits(a.mean) == math.Float64bits(b.mean) &&
		math.Float64bits(a.m2) == math.Float64bits(b.m2) &&
		math.Float64bits(a.min) == math.Float64bits(b.min) &&
		math.Float64bits(a.max) == math.Float64bits(b.max)
}

// statsWire is how the statistics ride in a checkpoint: fields of a
// gob-encoded struct.
type statsWire struct {
	C Counter
	H *Histogram
	S Summary
}

// gobRoundTrip passes w through gob, as a checkpoint does.
func gobRoundTrip(t *testing.T, w statsWire) statsWire {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	var out statsWire
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBinaryRoundTripBitExact: counters, histograms and summaries come
// back from their records, directly and through gob, bit for bit.
func TestBinaryRoundTripBitExact(t *testing.T) {
	h := NewHistogram(5)
	h.ObserveN(3, 1<<40)
	h.Observe(0)
	h.Observe(99)
	for _, c := range []uint64{0, 1, 127, 128, math.MaxUint64} {
		w := statsWire{C: Counter{c}, H: h}
		if got := gobRoundTrip(t, w); got.C != w.C || got.H.String() != h.String() ||
			got.H.Total() != h.Total() || got.H.Sum() != h.Sum() {
			t.Fatalf("counter %d / histogram %v came back as %d / %v", c, h, got.C.n, got.H)
		}
	}
	for i, a := range oddFloats {
		b := oddFloats[(i+3)%len(oddFloats)]
		s := Summary{n: uint64(i) << 50, mean: a, m2: b, min: -a, max: math.Copysign(b, -1)}
		var dec Summary
		rec, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.UnmarshalBinary(rec); err != nil || !sameBits(dec, s) {
			t.Fatalf("summary %+v came back as %+v (%v)", s, dec, err)
		}
		if got := gobRoundTrip(t, statsWire{S: s, H: h}); !sameBits(got.S, s) {
			t.Fatalf("summary %+v came back through gob as %+v", s, got.S)
		}
	}
	var empty Histogram
	rec, err := NewHistogram(0).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.UnmarshalBinary(rec); err != nil || empty.buckets != nil || empty.Total() != 0 {
		t.Fatalf("empty histogram came back as %+v (%v)", empty, err)
	}
}

// TestBinaryRefusesDamage: each record cut short or followed by a
// trailing byte is an error and leaves the receiver unchanged.
func TestBinaryRefusesDamage(t *testing.T) {
	h := NewHistogram(3)
	h.Observe(1)
	recs := map[string]encoding.BinaryMarshaler{
		"counter": Counter{300}, "histogram": h, "summary": Summary{n: 2, mean: 1, max: 2},
	}
	for name, m := range recs {
		rec, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range [][]byte{rec[:len(rec)-1], append(rec[:len(rec):len(rec)], 0)} {
			c, h, s := Counter{7}, Histogram{total: 7}, Summary{n: 7}
			into := map[string]encoding.BinaryUnmarshaler{"counter": &c, "histogram": &h, "summary": &s}[name]
			if err := into.UnmarshalBinary(bad); err == nil {
				t.Fatalf("%s: damaged record of %d bytes accepted", name, len(bad))
			}
			if c.n != 7 || h.total != 7 || s.n != 7 {
				t.Fatalf("%s: refused record modified the receiver", name)
			}
		}
	}
}

// FuzzStatsDecode feeds arbitrary bytes to the counter, histogram and
// summary decoders. Each must refuse the bytes or decode a value whose
// own record decodes to the same value; a histogram never holds more
// buckets than the input has bytes. Never a panic.
func FuzzStatsDecode(f *testing.F) {
	h := NewHistogram(4)
	h.ObserveN(2, 9)
	for _, m := range []encoding.BinaryMarshaler{Counter{1 << 33}, h, Summary{n: 1, mean: math.NaN(), min: math.Inf(-1)}} {
		rec, err := m.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Counter
		if c.UnmarshalBinary(data) == nil {
			var again Counter
			if rec, _ := c.MarshalBinary(); again.UnmarshalBinary(rec) != nil || again != c {
				t.Fatalf("counter %d does not round-trip", c.n)
			}
		}
		var h Histogram
		if h.UnmarshalBinary(data) == nil {
			if len(h.buckets) > len(data) {
				t.Fatalf("%d input bytes decoded to %d buckets", len(data), len(h.buckets))
			}
			var again Histogram
			if rec, _ := h.MarshalBinary(); again.UnmarshalBinary(rec) != nil || again.String() != h.String() ||
				again.total != h.total || again.sum != h.sum {
				t.Fatalf("histogram %v does not round-trip", &h)
			}
		}
		var s Summary
		if s.UnmarshalBinary(data) == nil {
			var again Summary
			if rec, _ := s.MarshalBinary(); again.UnmarshalBinary(rec) != nil || !sameBits(again, s) {
				t.Fatalf("summary %+v does not round-trip", s)
			}
		}
	})
}
