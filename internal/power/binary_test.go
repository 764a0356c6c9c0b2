package power

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
)

// TestMeterBinaryRoundTripBitExact: a meter's record, directly and
// through gob, restores every accumulator bit for bit (NaN payloads,
// ±Inf and -0 included); a record of the wrong length is refused.
func TestMeterBinaryRoundTripBitExact(t *testing.T) {
	var m Meter
	odd := []float64{math.Float64frombits(0x7ff8000000000123), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e-300}
	for i := range m.pj {
		m.pj[i] = odd[i%len(odd)]
	}
	type wire struct{ M Meter }
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire{m}); err != nil {
		t.Fatal(err)
	}
	var viaGob wire
	if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
		t.Fatal(err)
	}
	rec, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var direct Meter
	if err := direct.UnmarshalBinary(rec); err != nil {
		t.Fatal(err)
	}
	for _, got := range []Meter{viaGob.M, direct} {
		for i := range m.pj {
			if math.Float64bits(got.pj[i]) != math.Float64bits(m.pj[i]) {
				t.Fatalf("component %d came back as %v, want %v", i, got.pj[i], m.pj[i])
			}
		}
	}
	for _, bad := range [][]byte{rec[:len(rec)-1], append(rec, 0)} {
		if err := direct.UnmarshalBinary(bad); err == nil {
			t.Fatalf("meter record of %d bytes accepted", len(bad))
		}
	}
}
