package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"respin/internal/checkpoint"
	"respin/internal/stats"
)

// CacheState is the array's full mutable state, for checkpointing.
// Geometry, the set-index magic and attached models are construction
// inputs; the SoA columns, clocks, rotation offset and stats are the
// state. The attached endurance array is snapshotted separately by its
// own package (registration order is deterministic).
//
// The columns are sparse: a freshly built array is all-zero, and a run
// touches only a few percent of a multi-megabyte L2/L3, so only the
// ways with a non-zero tag, stamp or state byte are listed. Index holds
// their global way indices (set*assoc+way) in strictly ascending order;
// Tags, Used, Written and LineStates hold their values in the same
// order. Every unlisted way is all-zero.
//
// In a checkpoint the state is one flat binary record (AppendBinary,
// DecodeRecord): Ways as a varint; the listed way count; the way
// indices, each a uvarint delta from the previous one (the first from
// zero, modulo 2^32); the tags, then the LRU stamps, then the write
// stamps, each a uvarint; one byte per line state; Tick, Now and
// Rotation; then the Stats counters in field order.
type CacheState struct {
	// Ways is the array's total way count, so a state captured from a
	// different geometry is refused instead of scattered out of range.
	Ways                int
	Index               []uint32
	Tags, Used, Written []uint64
	LineStates          []LineState
	Tick, Now, Rotation uint64
	Stats               Stats
}

// wayRecordBytes is the least a listed way occupies in a record: four
// one-byte uvarints and its state byte.
const wayRecordBytes = 5

// counters lists every Stats field in declaration order, the order of
// the checkpoint record.
func (s *Stats) counters() [11]*stats.Counter {
	return [...]*stats.Counter{
		&s.Reads, &s.Writes, &s.ReadMisses, &s.WriteMisses, &s.Evictions,
		&s.Writebacks, &s.Invalidations, &s.InvalidationsDirty,
		&s.FillsFromLowerLevel, &s.ECCCorrected, &s.ECCUncorrectable,
	}
}

// forTouched calls fn with the global index of every touched way, in
// ascending order.
func (c *Cache) forTouched(fn func(i int)) {
	for w, word := range c.touched {
		for word != 0 {
			fn(w<<6 | bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// live reports whether way i holds any non-zero column.
func (c *Cache) live(i int) bool {
	return c.tags[i]|c.used[i]|c.written[i] != 0 || c.state[i] != StateInvalid
}

// Snapshot captures the array's mutable state, listing only the ways
// whose columns are not all zero. It visits the touched ways alone, so
// its cost follows what the run touched, not the array size. The
// columns are sized by the touched-way count, which is exact unless a
// restored state listed an all-zero way.
func (c *Cache) Snapshot() CacheState {
	st := CacheState{
		Ways:     len(c.tags),
		Tick:     c.tick,
		Now:      c.now,
		Rotation: c.rotation,
		Stats:    c.Stats,
	}
	n := 0
	for _, word := range c.touched {
		n += bits.OnesCount64(word)
	}
	if n == 0 {
		return st
	}
	cols := make([]uint64, 3*n)
	index := make([]uint32, n)
	tags, used, written := cols[:n:n], cols[n:2*n:2*n], cols[2*n:]
	states := make([]LineState, n)
	k := 0
	c.forTouched(func(i int) {
		if c.live(i) {
			index[k] = uint32(i)
			tags[k], used[k], written[k] = c.tags[i], c.used[i], c.written[i]
			states[k] = c.state[i]
			k++
		}
	})
	if k > 0 {
		st.Index, st.Tags, st.Used, st.Written, st.LineStates = index[:k], tags[:k], used[:k], written[:k], states[:k]
	}
	return st
}

// check validates a captured state against the array's geometry. The
// checkpoint checksum only proves the bytes are the ones written, so a
// hostile or mismatched state must be refused here, before Restore
// writes anything.
func (st *CacheState) check(ways int) error {
	if st.Ways != ways {
		return fmt.Errorf("mem: restore has %d ways, cache has %d", st.Ways, ways)
	}
	if err := st.checkColumns(); err != nil {
		return err
	}
	for k, w := range st.Index {
		if int64(w) >= int64(ways) {
			return fmt.Errorf("mem: restore way index %d out of range (%d ways)", w, ways)
		}
		if k > 0 && w <= st.Index[k-1] {
			return fmt.Errorf("mem: restore way indices not strictly ascending at %d", k)
		}
	}
	return nil
}

// checkColumns refuses columns of unequal length.
func (st *CacheState) checkColumns() error {
	n := len(st.Index)
	if len(st.Tags) != n || len(st.Used) != n || len(st.Written) != n || len(st.LineStates) != n {
		return fmt.Errorf("mem: cache state column lengths differ (index %d, tags %d, used %d, written %d, states %d)",
			n, len(st.Tags), len(st.Used), len(st.Written), len(st.LineStates))
	}
	return nil
}

// Restore repositions an array of identical geometry to a captured
// state: the touched ways are zeroed (every other way already is), then
// the listed ways scattered back and marked touched. Since a
// freshly built array is all-zero, the result is bit-identical to the
// snapshotted array whatever this one held before. An invalid state is
// refused with an error and leaves the array untouched.
func (c *Cache) Restore(st CacheState) error {
	if err := st.check(len(c.tags)); err != nil {
		return err
	}
	c.forTouched(func(i int) {
		c.tags[i], c.used[i], c.written[i], c.state[i] = 0, 0, 0, StateInvalid
	})
	clear(c.touched)
	for k, w := range st.Index {
		c.tags[w] = st.Tags[k]
		c.used[w] = st.Used[k]
		c.written[w] = st.Written[k]
		c.state[w] = st.LineStates[k]
		c.touched[w>>6] |= 1 << (w & 63)
	}
	c.tick = st.Tick
	c.now = st.Now
	c.rotation = st.Rotation
	c.Stats = st.Stats
	return nil
}

// AppendBinary appends the state's checkpoint record (see CacheState).
// Columns of unequal length are an error.
func (st CacheState) AppendBinary(b []byte) ([]byte, error) {
	if err := st.checkColumns(); err != nil {
		return b, err
	}
	b = binary.AppendVarint(b, int64(st.Ways))
	b = binary.AppendUvarint(b, uint64(len(st.Index)))
	prev := uint32(0)
	for _, w := range st.Index {
		b = binary.AppendUvarint(b, uint64(w-prev))
		prev = w
	}
	for _, col := range [...][]uint64{st.Tags, st.Used, st.Written} {
		for _, v := range col {
			b = binary.AppendUvarint(b, v)
		}
	}
	for _, ls := range st.LineStates {
		b = append(b, byte(ls))
	}
	b = binary.AppendUvarint(b, st.Tick)
	b = binary.AppendUvarint(b, st.Now)
	b = binary.AppendUvarint(b, st.Rotation)
	for _, c := range st.Stats.counters() {
		b = binary.AppendUvarint(b, c.Value())
	}
	return b, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (st CacheState) MarshalBinary() ([]byte, error) {
	return st.AppendBinary(make([]byte, 0, 20*len(st.Index)+16*binary.MaxVarintLen64))
}

// DecodeRecord reads one record written by AppendBinary into the zero
// state st. Failures stick in r. The way count is checked against the
// bytes left before the columns are allocated; whether the state fits
// an array is Restore's check, not the decoder's.
func (st *CacheState) DecodeRecord(r *checkpoint.Reader) {
	st.Ways = int(r.Varint())
	if n := r.Count(wayRecordBytes); n > 0 {
		st.Index = make([]uint32, n)
		prev := uint32(0)
		for k := range st.Index {
			prev += r.Uint32()
			st.Index[k] = prev
		}
		cols := make([]uint64, 3*n)
		for k := range cols {
			cols[k] = r.Uvarint()
		}
		st.Tags, st.Used, st.Written = cols[:n:n], cols[n:2*n:2*n], cols[2*n:]
		st.LineStates = make([]LineState, n)
		for k, b := range r.Bytes(n) {
			st.LineStates[k] = LineState(b)
		}
	}
	st.Tick, st.Now, st.Rotation = r.Uvarint(), r.Uvarint(), r.Uvarint()
	for _, c := range st.Stats.counters() {
		c.Add(r.Uvarint())
	}
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Truncated
// input and trailing bytes are errors.
func (st *CacheState) UnmarshalBinary(data []byte) error {
	r := checkpoint.NewReader(data)
	var d CacheState
	d.DecodeRecord(&r)
	if err := r.Close(); err != nil {
		return fmt.Errorf("mem: cache state: %w", err)
	}
	*st = d
	return nil
}
