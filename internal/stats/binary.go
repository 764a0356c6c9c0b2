// Checkpoint support: the statistics types keep their fields unexported
// (the accessors enforce the invariants), so they implement
// encoding.BinaryMarshaler/BinaryUnmarshaler explicitly; gob honours
// both. Each type writes a flat record of its exact internal state —
// uvarint counts and raw float64 bits — so a restored statistic is
// bit-identical (NaN payloads, ±Inf and -0 included), not merely
// equivalent, which the checkpoint layer depends on.
package stats

import (
	"encoding/binary"
	"fmt"

	"respin/internal/checkpoint"
)

// MarshalBinary implements encoding.BinaryMarshaler. The record is the
// count as a uvarint.
func (c Counter) MarshalBinary() ([]byte, error) {
	return binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64), c.n), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *Counter) UnmarshalBinary(data []byte) error {
	r := checkpoint.NewReader(data)
	n := r.Uvarint()
	if err := r.Close(); err != nil {
		return fmt.Errorf("stats: counter record: %w", err)
	}
	c.n = n
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler. The record is the
// bucket count, each bucket, then overflow, total and sum, all uvarints.
func (h Histogram) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 2*len(h.buckets)+4*binary.MaxVarintLen64)
	b = binary.AppendUvarint(b, uint64(len(h.buckets)))
	for _, n := range h.buckets {
		b = binary.AppendUvarint(b, n)
	}
	b = binary.AppendUvarint(b, h.overflow)
	b = binary.AppendUvarint(b, h.total)
	return binary.AppendUvarint(b, h.sum), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. A histogram
// without buckets decodes with nil buckets.
func (h *Histogram) UnmarshalBinary(data []byte) error {
	r := checkpoint.NewReader(data)
	var buckets []uint64
	if n := r.Count(1); n > 0 {
		buckets = make([]uint64, n)
		for i := range buckets {
			buckets[i] = r.Uvarint()
		}
	}
	overflow, total, sum := r.Uvarint(), r.Uvarint(), r.Uvarint()
	if err := r.Close(); err != nil {
		return fmt.Errorf("stats: histogram record: %w", err)
	}
	h.buckets, h.overflow, h.total, h.sum = buckets, overflow, total, sum
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler. The record is the
// observation count as a uvarint, then the mean, M2, min and max float64
// bits.
func (s Summary) MarshalBinary() ([]byte, error) {
	b := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+4*8), s.n)
	for _, f := range [...]float64{s.mean, s.m2, s.min, s.max} {
		b = checkpoint.AppendFloat64(b, f)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *Summary) UnmarshalBinary(data []byte) error {
	r := checkpoint.NewReader(data)
	n := r.Uvarint()
	mean, m2, lo, hi := r.Float64(), r.Float64(), r.Float64(), r.Float64()
	if err := r.Close(); err != nil {
		return fmt.Errorf("stats: summary record: %w", err)
	}
	s.n, s.mean, s.m2, s.min, s.max = n, mean, m2, lo, hi
	return nil
}
