// Checkpoint support: Meter keeps its per-component accumulator
// unexported, so it implements encoding.BinaryMarshaler/
// BinaryUnmarshaler explicitly; gob honours both. The record is the
// exact float64 bits of every component in order, keeping restored
// energy accounting bit-identical.
package power

import (
	"fmt"

	"respin/internal/checkpoint"
)

// meterBytes is the length of a Meter record.
const meterBytes = 8 * int(numComponents)

// MarshalBinary implements encoding.BinaryMarshaler.
func (m Meter) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, meterBytes)
	for _, pj := range m.pj {
		b = checkpoint.AppendFloat64(b, pj)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *Meter) UnmarshalBinary(data []byte) error {
	if len(data) != meterBytes {
		return fmt.Errorf("power: meter record has %d bytes, want %d", len(data), meterBytes)
	}
	r := checkpoint.NewReader(data)
	for i := range m.pj {
		m.pj[i] = r.Float64()
	}
	return nil
}
