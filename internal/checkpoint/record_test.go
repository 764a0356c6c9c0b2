package checkpoint

import (
	"encoding/binary"
	"math"
	"path/filepath"
	"testing"
)

// TestReaderDecodesWhatWasAppended: values appended with the encoding
// helpers come back in order, and Close accepts the exhausted record.
func TestReaderDecodesWhatWasAppended(t *testing.T) {
	b := binary.AppendUvarint(nil, math.MaxUint64)
	b = binary.AppendVarint(b, math.MinInt64)
	b = binary.AppendUvarint(b, math.MaxUint32)
	b = AppendFloat64(b, math.Copysign(0, -1))
	b = append(b, 7, 1, 2, 1, 0)
	b = binary.AppendUvarint(b, 3)
	b = append(b, 0, 0, 0)
	r := NewReader(b)
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Fatalf("uvarint %d", v)
	}
	if v := r.Varint(); v != math.MinInt64 {
		t.Fatalf("varint %d", v)
	}
	if v := r.Uint32(); v != math.MaxUint32 {
		t.Fatalf("uint32 %d", v)
	}
	if v := r.Float64(); math.Float64bits(v) != 1<<63 {
		t.Fatalf("float64 bits %#x, want -0", math.Float64bits(v))
	}
	if v := r.Byte(); v != 7 {
		t.Fatalf("byte %d", v)
	}
	if v := r.Bytes(2); len(v) != 2 || v[1] != 2 {
		t.Fatalf("bytes %v", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("flags 1, 0 not read as true, false")
	}
	if n := r.Count(1); n != 3 || len(r.Bytes(n)) != 3 {
		t.Fatalf("count %d", n)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRefusesHostileInput: truncation, 64-bit overflow, a 32-bit
// field past 32 bits, a flag byte other than 0 or 1, a count the remaining bytes cannot hold, and
// trailing bytes are errors, and the first one sticks.
func TestReaderRefusesHostileInput(t *testing.T) {
	cases := map[string]func(r *Reader){
		"empty uvarint":    func(r *Reader) { r.Uvarint() },
		"short float":      func(r *Reader) { r.Float64() },
		"short bytes":      func(r *Reader) { r.Bytes(9) },
		"uint32 overflow":  func(r *Reader) { r.Uint32() },
		"count too large":  func(r *Reader) { r.Count(2) },
		"trailing bytes":   func(r *Reader) { r.Byte() },
		"flag above one":   func(r *Reader) { r.Bool() },
		"empty flag":       func(r *Reader) { r.Bool() },
		"varint overflow":  func(r *Reader) { r.Bytes(3); r.Varint() },
		"sticky after err": func(r *Reader) { r.Bytes(100); r.Uvarint() },
	}
	inputs := map[string][]byte{
		"empty uvarint":    {},
		"short float":      {1, 2, 3},
		"short bytes":      {1, 2, 3},
		"uint32 overflow":  binary.AppendUvarint(nil, 1<<32),
		"count too large":  {4, 1, 2, 3, 4, 5, 6, 7},
		"trailing bytes":   {1, 2},
		"flag above one":   {2},
		"empty flag":       {},
		"varint overflow":  {0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"sticky after err": {1},
	}
	for name, read := range cases {
		r := NewReader(inputs[name])
		read(&r)
		if err := r.Close(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestWriterSizesFromPreviousWrite: a Writer's saves load back like the
// package-level Save's, and each records its payload length for the next.
func TestWriterSizesFromPreviousWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	var w Writer
	for i, in := range []payload{{Name: "a", Vals: make([]uint64, 1000)}, {Name: "b", Cycle: 9}} {
		if err := w.Save(path, 3, in); err != nil {
			t.Fatal(err)
		}
		if w.last == 0 {
			t.Fatalf("save %d recorded no payload length", i)
		}
		var out payload
		if err := Load(path, 3, &out); err != nil || out.Name != in.Name || out.Cycle != in.Cycle {
			t.Fatalf("save %d loaded as %+v (%v)", i, out, err)
		}
	}
}
