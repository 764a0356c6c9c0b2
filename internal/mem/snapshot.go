package mem

import (
	"encoding/binary"
	"fmt"

	"respin/internal/checkpoint"
	"respin/internal/stats"
)

// CacheState is the array's full mutable state, for checkpointing.
// Geometry, the set-index magic and attached models are construction
// inputs; the per-way columns, the cache clock, the rotation offset and
// stats are the state. The record describes the logical array, way by
// global index set*assoc+way: where the pool keeps a way, and how large
// a set's block is, are not part of it. The attached endurance array is
// snapshotted separately by its own package (registration order is
// deterministic).
//
// The columns are sparse: a freshly built array is all-zero, and a run
// touches only a few percent of a multi-megabyte L2/L3, so only the
// ways with a non-zero tag, LRU rank, write stamp or state byte are
// listed. Index holds their global way indices (set*assoc+way) in
// strictly ascending order; Tags, Age, LineStates and, for an array with
// a retention model, Written hold their values in the same order. Every
// unlisted way is all-zero. Age is each way's LRU rank (see Cache.stamp):
// in every set the non-zero ranks are exactly {1..k}, and every valid
// line has one. Retention records whether the array keeps write stamps;
// without it Written is empty, and Restore refuses a state whose
// Retention differs from the array's.
//
// In a checkpoint the state is one flat binary record (AppendBinary,
// DecodeRecord): Ways as a varint; Retention as one 0/1 byte; the
// listed way count; the way indices, each a uvarint delta from the
// previous one (the first from zero, modulo 2^32); the tags, then (with
// Retention) the write stamps, each a uvarint; one byte per rank; one
// byte per line state; Now and Rotation; then the Stats counters in
// field order.
type CacheState struct {
	// Ways is the array's total way count, so a state captured from a
	// different geometry is refused instead of scattered out of range.
	Ways          int
	Retention     bool
	Index         []uint32
	Tags, Written []uint64
	Age           []uint8
	LineStates    []LineState
	Now, Rotation uint64
	Stats         Stats
}

// wayRecordBytes is the least a listed way occupies in a record: two
// one-byte uvarints (index delta and tag), its rank byte and its state
// byte; a write stamp adds at least one more.
const wayRecordBytes = 4

// counters lists every Stats field in declaration order, the order of
// the checkpoint record.
func (s *Stats) counters() [11]*stats.Counter {
	return [...]*stats.Counter{
		&s.Reads, &s.Writes, &s.ReadMisses, &s.WriteMisses, &s.Evictions,
		&s.Writebacks, &s.Invalidations, &s.InvalidationsDirty,
		&s.FillsFromLowerLevel, &s.ECCCorrected, &s.ECCUncorrectable,
	}
}

// live reports whether the way at pool index p holds any non-zero
// column.
func (c *Cache) live(p int) bool {
	return c.tags[p] != 0 || c.age[p] != 0 || c.state[p] != StateInvalid || c.written != nil && c.written[p] != 0
}

// Snapshot captures the array's mutable state, listing only the ways
// whose columns are not all zero. It visits the sets' blocks alone, so
// its cost follows the set count and what the run filled, not the
// array's way count, and its columns are sized by the count of listed
// ways.
func (c *Cache) Snapshot() CacheState {
	st := CacheState{
		Ways:      c.Capacity(),
		Retention: c.written != nil,
		Now:       c.now,
		Rotation:  c.rotation,
		Stats:     c.Stats,
	}
	n := 0
	c.forBlocks(func(_ uint64, _, p int) {
		if c.live(p) {
			n++
		}
	})
	if n == 0 {
		return st
	}
	index := make([]uint32, n)
	tags := make([]uint64, n)
	var written []uint64
	if st.Retention {
		written = make([]uint64, n)
	}
	age := make([]uint8, n)
	states := make([]LineState, n)
	k := 0
	c.forBlocks(func(si uint64, way, p int) {
		if c.live(p) {
			index[k], tags[k], age[k], states[k] = uint32(int(si)*c.assoc+way), c.tags[p], c.age[p], c.state[p]
			if written != nil {
				written[k] = c.written[p]
			}
			k++
		}
	})
	st.Index, st.Tags, st.Age, st.LineStates, st.Written = index, tags, age, states, written
	return st
}

// check validates a captured state against the array's geometry. The
// checkpoint checksum only proves the bytes are the ones written, so a
// hostile or mismatched state must be refused here, before Restore
// writes anything.
func (st *CacheState) check(ways, assoc int, retention bool) error {
	if st.Ways != ways {
		return fmt.Errorf("mem: restore has %d ways, cache has %d", st.Ways, ways)
	}
	if st.Retention != retention {
		return fmt.Errorf("mem: restore retention stamps %v, cache models retention %v", st.Retention, retention)
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
	return st.checkRanks(assoc)
}

// checkColumns refuses columns of unequal length, and write stamps on a
// state without Retention.
func (st *CacheState) checkColumns() error {
	n := len(st.Index)
	nw := 0
	if st.Retention {
		nw = n
	}
	if len(st.Tags) != n || len(st.Written) != nw || len(st.Age) != n || len(st.LineStates) != n {
		return fmt.Errorf("mem: cache state column lengths differ (index %d, tags %d, written %d (want %d), ranks %d, states %d)",
			n, len(st.Tags), len(st.Written), nw, len(st.Age), len(st.LineStates))
	}
	return nil
}

// checkRanks refuses ranks that break the invariant Cache.stamp keeps:
// in every set the non-zero ranks are exactly {1..k}, and every valid
// line has one. Unlisted ways have rank 0 and are invalid, so only the
// listed ways of each set count. Distinct non-zero ranks whose largest
// equals their count are exactly {1..k}. The indices are already known
// to be ascending and in range, so each set's ways are contiguous.
func (st *CacheState) checkRanks(assoc int) error {
	for lo := 0; lo < len(st.Index); {
		set := st.Index[lo] / uint32(assoc)
		var seen [4]uint64 // one bit per rank value
		k, top := 0, uint8(0)
		hi := lo
		for ; hi < len(st.Index) && st.Index[hi]/uint32(assoc) == set; hi++ {
			a := st.Age[hi]
			if a == 0 {
				if st.LineStates[hi] != StateInvalid {
					return fmt.Errorf("mem: restore way %d holds a valid line with no LRU rank", st.Index[hi])
				}
				continue
			}
			if seen[a>>6]&(1<<(a&63)) != 0 {
				return fmt.Errorf("mem: restore set %d repeats LRU rank %d", set, a)
			}
			seen[a>>6] |= 1 << (a & 63)
			k++
			top = max(top, a)
		}
		if int(top) != k {
			return fmt.Errorf("mem: restore set %d has %d LRU ranks up to %d, want exactly 1..%d", set, k, top, k)
		}
		lo = hi
	}
	return nil
}

// Restore repositions an array of identical geometry to a captured
// state. It rebuilds the pool from the listed ways: each set with a
// listed way gets the smallest block capacity on grow's doubling path
// that reaches its last listed way, the blocks are laid out in set order
// in fresh columns, and the listed ways are scattered into them. Every
// other way is then all-zero, as in the
// snapshotted array, so the result is logically identical to it
// whatever this one held before. An invalid state is refused with an
// error and leaves the array untouched.
func (c *Cache) Restore(st CacheState) error {
	if err := st.check(c.Capacity(), c.assoc, c.written != nil); err != nil {
		return err
	}
	clear(c.sets)
	// First pass: each set's block capacity. The indices ascend, so a
	// set's last listed way is the last of its run.
	c.blocked = 0
	for k, w := range st.Index {
		si := w / uint32(c.assoc)
		if k+1 < len(st.Index) && st.Index[k+1]/uint32(c.assoc) == si {
			continue
		}
		n := c.blockCap(0, int(w%uint32(c.assoc))+1)
		c.sets[si] = uint32(n)
		c.blocked += n
	}
	c.tags, c.state, c.age, c.written = c.newPool()
	at := 0
	for si, n := range c.sets {
		if n != 0 {
			c.sets[si] = uint32(at)<<capBits | n
			at += int(n)
		}
	}
	for k, w := range st.Index {
		off, _ := c.block(uint64(w / uint32(c.assoc)))
		p := off + int(w%uint32(c.assoc))
		c.tags[p] = st.Tags[k]
		c.age[p] = st.Age[k]
		c.state[p] = st.LineStates[k]
		if c.written != nil {
			c.written[p] = st.Written[k]
		}
	}
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
	flag := byte(0)
	if st.Retention {
		flag = 1
	}
	b = append(b, flag)
	b = binary.AppendUvarint(b, uint64(len(st.Index)))
	prev := uint32(0)
	for _, w := range st.Index {
		b = binary.AppendUvarint(b, uint64(w-prev))
		prev = w
	}
	for _, col := range [...][]uint64{st.Tags, st.Written} {
		for _, v := range col {
			b = binary.AppendUvarint(b, v)
		}
	}
	b = append(b, st.Age...)
	for _, ls := range st.LineStates {
		b = append(b, byte(ls))
	}
	b = binary.AppendUvarint(b, st.Now)
	b = binary.AppendUvarint(b, st.Rotation)
	for _, c := range st.Stats.counters() {
		b = binary.AppendUvarint(b, c.Value())
	}
	return b, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (st CacheState) MarshalBinary() ([]byte, error) {
	return st.AppendBinary(make([]byte, 0, 12*len(st.Index)+9*len(st.Written)+16*binary.MaxVarintLen64))
}

// DecodeRecord reads one record written by AppendBinary into the zero
// state st. Failures stick in r. The way count is checked against the
// bytes left before the columns are allocated; whether the state fits
// an array is Restore's check, not the decoder's.
func (st *CacheState) DecodeRecord(r *checkpoint.Reader) {
	st.Ways = int(r.Varint())
	st.Retention = r.Bool()
	minBytes := wayRecordBytes
	if st.Retention {
		minBytes++
	}
	if n := r.Count(minBytes); n > 0 {
		st.Index = make([]uint32, n)
		prev := uint32(0)
		for k := range st.Index {
			prev += r.Uint32()
			st.Index[k] = prev
		}
		st.Tags = make([]uint64, n)
		for k := range st.Tags {
			st.Tags[k] = r.Uvarint()
		}
		if st.Retention {
			st.Written = make([]uint64, n)
			for k := range st.Written {
				st.Written[k] = r.Uvarint()
			}
		}
		st.Age = make([]uint8, n)
		copy(st.Age, r.Bytes(n))
		st.LineStates = make([]LineState, n)
		for k, b := range r.Bytes(n) {
			st.LineStates[k] = LineState(b)
		}
	}
	st.Now, st.Rotation = r.Uvarint(), r.Uvarint()
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
