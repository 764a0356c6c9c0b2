package checkpoint

// Flat binary records. The bulky state types of a snapshot — cache
// arrays, the coherence directory, statistics, energy meters — encode
// themselves as flat byte records through encoding.BinaryMarshaler,
// which gob honours, instead of being walked by gob's reflection. A
// record is a sequence of uvarints, raw IEEE-754 float64 bits (little
// endian, so NaN payloads and -0 survive) and raw bytes, in an order
// each type documents. Reader is the one decoder they share: every
// length prefix is checked against the bytes that remain before anything
// is allocated, and truncated input or trailing bytes are errors.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Decode failures: a record that ends mid-field, and a varint longer
// than 64 bits.
var (
	errTruncated = errors.New("record truncated")
	errOverflow  = errors.New("record varint overflows 64 bits")
)

// AppendFloat64 appends f's exact IEEE-754 bits, little endian.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// Reader decodes one record. The first failure sticks: every later read
// returns zero and Close reports that failure, so a decoder reads its
// fields straight through and checks once at the end.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) Reader { return Reader{b: data} }

// fail records the first decode failure.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// Close ends the record: it returns the first decode failure, or an
// error when bytes remain unread.
func (r *Reader) Close() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("record has %d trailing bytes", len(r.b))
	}
	return r.err
}

// skip consumes the n bytes a varint decode reported, or records why
// the decode failed (n == 0: truncated, n < 0: overflow).
func (r *Reader) skip(n int) bool {
	switch {
	case n > 0:
		r.b = r.b[n:]
		return true
	case n == 0:
		r.fail(errTruncated)
	default:
		r.fail(errOverflow)
	}
	return false
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if !r.skip(n) {
		return 0
	}
	return v
}

// Varint reads one signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if !r.skip(n) {
		return 0
	}
	return v
}

// Uint32 reads one unsigned varint that must fit in 32 bits.
func (r *Reader) Uint32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.fail(fmt.Errorf("record value %d overflows 32 bits", v))
		return 0
	}
	return uint32(v)
}

// Float64 reads one float64 written by AppendFloat64.
func (r *Reader) Float64() float64 {
	b := r.Bytes(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	b := r.Bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte that must be 0 (false) or 1 (true).
func (r *Reader) Bool() bool {
	switch b := r.Byte(); b {
	case 0, 1:
		return b == 1
	default:
		r.fail(fmt.Errorf("record flag byte %d is neither 0 nor 1", b))
		return false
	}
}

// Bytes returns the next n raw bytes (aliasing the input, not a copy).
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.fail(errTruncated)
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

// Count reads a uvarint element count and refuses it unless the
// remaining bytes can hold that many elements of at least minBytes
// each, so a hostile count never drives an allocation larger than a
// small multiple of the input.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)/minBytes) {
		r.fail(fmt.Errorf("record count %d exceeds the %d bytes left", n, len(r.b)))
		return 0
	}
	return int(n)
}
