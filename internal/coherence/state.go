package coherence

import (
	"encoding/binary"
	"fmt"

	"respin/internal/checkpoint"
	"respin/internal/mem"
	"respin/internal/stats"
)

// DirEntryState is one directory entry, exported for checkpointing.
type DirEntryState struct {
	Block   uint64
	Sharers uint64
	Owner   int8
}

// DirectoryState is the protocol engine's full mutable state: the
// per-core L1D arrays, the directory map (sorted by block address so
// the serialized form is deterministic), and the event counters.
//
// In a checkpoint the state is one flat binary record (AppendBinary):
// the cache count and each cache's mem.CacheState record; the entry
// count and the entries, each a uvarint block delta from the previous
// entry's block (the first from zero, modulo 2^64), a uvarint sharer
// mask and the owner byte; then the Stats counters in field order.
type DirectoryState struct {
	Caches  []mem.CacheState
	Entries []DirEntryState
	Stats   Stats
}

// Record bounds: the least one cache or one entry occupies, and the
// most caches a directory can have (New's limit).
const (
	cacheRecordBytes = 16
	entryRecordBytes = 3
	maxCaches        = 64
)

// counters lists every Stats field in declaration order, the order of
// the checkpoint record.
func (s *Stats) counters() [10]*stats.Counter {
	return [...]*stats.Counter{
		&s.Reads, &s.Writes, &s.L1Hits, &s.Upgrades, &s.Invalidations,
		&s.CacheToCache, &s.DirectoryLookups, &s.WritebacksToL2,
		&s.FillsFromL2, &s.SilentEvictNotify,
	}
}

// State captures the directory's mutable state.
func (d *Directory) State() DirectoryState {
	st := DirectoryState{
		Caches:  make([]mem.CacheState, len(d.caches)),
		Entries: make([]DirEntryState, 0, len(d.entries)),
		Stats:   d.Stats,
	}
	for i, c := range d.caches {
		st.Caches[i] = c.Snapshot()
	}
	for block, e := range d.entries {
		st.Entries = append(st.Entries, DirEntryState{Block: block, Sharers: e.sharers, Owner: e.owner})
	}
	sortEntries(st.Entries)
	return st
}

// sortEntries orders entries by block address: an LSD radix sort over
// the address bytes that skips every byte all entries share (block
// addresses span far fewer than 64 bits). Blocks are distinct map keys,
// so the order is total and the sort's stability is moot.
func sortEntries(es []DirEntryState) {
	if len(es) < 2 {
		return
	}
	var counts [8][256]int
	for _, e := range es {
		for d := range counts {
			counts[d][byte(e.Block>>(8*d))]++
		}
	}
	src, dst := es, make([]DirEntryState, len(es))
	for d := range counts {
		c := &counts[d]
		if c[byte(src[0].Block>>(8*d))] == len(es) {
			continue
		}
		off := 0
		for i, n := range c {
			c[i] = off
			off += n
		}
		for _, e := range src {
			k := byte(e.Block >> (8 * d))
			dst[c[k]] = e
			c[k]++
		}
		src, dst = dst, src
	}
	copy(es, src)
}

// Restore repositions a freshly built directory (same geometry) to a
// captured state. An entry naming a cache the directory does not have
// is an error, not a later out-of-range index.
func (d *Directory) Restore(st DirectoryState) error {
	if len(st.Caches) != len(d.caches) {
		return fmt.Errorf("coherence: restore has %d caches, directory has %d", len(st.Caches), len(d.caches))
	}
	for _, e := range st.Entries {
		if int(e.Owner) < -1 || int(e.Owner) >= len(d.caches) || e.Sharers>>uint(len(d.caches)) != 0 {
			return fmt.Errorf("coherence: restore entry %#x has owner %d, sharers %#x over %d caches",
				e.Block, e.Owner, e.Sharers, len(d.caches))
		}
	}
	for i, c := range d.caches {
		if err := c.Restore(st.Caches[i]); err != nil {
			return err
		}
	}
	d.entries = make(map[uint64]dirEntry, len(st.Entries))
	for _, e := range st.Entries {
		d.entries[e.Block] = dirEntry{sharers: e.Sharers, owner: e.Owner}
	}
	d.Stats = st.Stats
	return nil
}

// AppendBinary appends the state's checkpoint record (see
// DirectoryState).
func (st DirectoryState) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(st.Caches)))
	for _, cs := range st.Caches {
		var err error
		if b, err = cs.AppendBinary(b); err != nil {
			return b, err
		}
	}
	b = binary.AppendUvarint(b, uint64(len(st.Entries)))
	prev := uint64(0)
	for _, e := range st.Entries {
		b = binary.AppendUvarint(b, e.Block-prev)
		b = binary.AppendUvarint(b, e.Sharers)
		b = append(b, byte(e.Owner))
		prev = e.Block
	}
	for _, c := range st.Stats.counters() {
		b = binary.AppendUvarint(b, c.Value())
	}
	return b, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (st DirectoryState) MarshalBinary() ([]byte, error) {
	size := 8 * len(st.Entries)
	for _, cs := range st.Caches {
		size += 20*len(cs.Index) + 16*binary.MaxVarintLen64
	}
	return st.AppendBinary(make([]byte, 0, size))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Every count
// is checked against the bytes left before it is allocated; truncated
// input and trailing bytes are errors.
func (st *DirectoryState) UnmarshalBinary(data []byte) error {
	r := checkpoint.NewReader(data)
	var d DirectoryState
	if n := r.Count(cacheRecordBytes); n > maxCaches {
		return fmt.Errorf("coherence: directory state lists %d caches, at most %d", n, maxCaches)
	} else if n > 0 {
		d.Caches = make([]mem.CacheState, n)
		for i := range d.Caches {
			d.Caches[i].DecodeRecord(&r)
		}
	}
	if n := r.Count(entryRecordBytes); n > 0 {
		d.Entries = make([]DirEntryState, n)
		prev := uint64(0)
		for i := range d.Entries {
			prev += r.Uvarint()
			d.Entries[i] = DirEntryState{Block: prev, Sharers: r.Uvarint(), Owner: int8(r.Byte())}
		}
	}
	for _, c := range d.Stats.counters() {
		c.Add(r.Uvarint())
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("coherence: directory state: %w", err)
	}
	*st = d
	return nil
}
