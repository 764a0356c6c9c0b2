// Package coherence implements the cluster-level MESI directory protocol
// that keeps the private per-core L1 data caches of the baseline designs
// (PR-SRAM-NT, HP-SRAM-CMP, PR-STT-CC) coherent. The proposed shared-L1
// design eliminates this machinery entirely within a cluster — the
// performance and energy gap between the two paths is one of the paper's
// central results.
//
// The protocol is a timing/event model: it tracks line states and
// directory content exactly, and reports the traffic each access causes
// (invalidations, cache-to-cache forwards, writebacks). The enclosing
// cluster model converts that traffic into latency and energy.
package coherence

import (
	"fmt"

	"respin/internal/config"
	"respin/internal/mem"
	"respin/internal/stats"
)

// MESI line states, layered on mem.LineState. Modified aliases
// mem.StateDirty so that dirty-eviction writeback logic in the underlying
// arrays applies unchanged; Shared aliases mem.StateValid.
const (
	// Invalid marks an absent line.
	Invalid = mem.StateInvalid
	// Shared is a clean line possibly present in other caches.
	Shared = mem.StateValid
	// Modified is the sole, dirty copy.
	Modified = mem.StateDirty
	// Exclusive is the sole, clean copy.
	Exclusive = mem.LineState(3)
)

// Outcome describes what one coherent access caused.
type Outcome struct {
	// L1Hit is true when the access completed in the local L1 without
	// any directory interaction.
	L1Hit bool
	// Upgrade is true for a write that hit a Shared line and required
	// invalidating remote copies before proceeding.
	Upgrade bool
	// SourcedFromCore is the cluster-local core whose cache forwarded
	// the data, or -1 when the fill came from the L2 side.
	SourcedFromCore int
	// NeedsL2 is true when the fill must be satisfied by the L2
	// hierarchy (the caller models that path).
	NeedsL2 bool
	// Invalidations counts remote copies invalidated by this access.
	Invalidations int
	// DirtyForward is true when a Modified remote line supplied the
	// data (it is written back to L2 as part of the transaction).
	DirtyForward bool
	// WritebacksToL2 counts dirty lines pushed to L2 by this access
	// (dirty forwards, dirty invalidations and dirty evictions).
	WritebacksToL2 int
	// EvictedDirty is true when the fill displaced a dirty victim.
	EvictedDirty bool
}

// Stats aggregates protocol-level event counts.
type Stats struct {
	Reads, Writes     stats.Counter
	L1Hits            stats.Counter
	Upgrades          stats.Counter
	Invalidations     stats.Counter
	CacheToCache      stats.Counter
	DirectoryLookups  stats.Counter
	WritebacksToL2    stats.Counter
	FillsFromL2       stats.Counter
	SilentEvictNotify stats.Counter
}

type dirEntry struct {
	sharers uint64 // bitmask of cluster-local cores holding the line
	owner   int8   // core holding M/E, or -1
}

// Directory is the MESI protocol engine for one cluster.
type Directory struct {
	nCores     int
	blockBytes uint64
	caches     []*mem.Cache // private L1D per core
	entries    map[uint64]dirEntry
	Stats      Stats
}

// New builds a directory over nCores private L1D caches with the given
// geometry.
func New(nCores int, p config.CacheParams) *Directory {
	if nCores <= 0 || nCores > maxCaches {
		panic(fmt.Sprintf("coherence: unsupported core count %d", nCores))
	}
	d := &Directory{
		nCores:     nCores,
		blockBytes: uint64(p.BlockBytes),
		caches:     make([]*mem.Cache, nCores),
		entries:    make(map[uint64]dirEntry),
	}
	for i := range d.caches {
		d.caches[i] = mem.NewCache(p)
	}
	return d
}

// Cache exposes core i's private L1D (for occupancy inspection in tests
// and reports).
func (d *Directory) Cache(i int) *mem.Cache { return d.caches[i] }

// NumCores returns the cluster width.
func (d *Directory) NumCores() int { return d.nCores }

// block returns the canonical block address used as directory key.
func (d *Directory) block(addr uint64) uint64 { return d.caches[0].BlockAddr(addr) }

// checkCore panics on out-of-range core ids (programming error).
func (d *Directory) checkCore(core int) {
	if core < 0 || core >= d.nCores {
		panic(fmt.Sprintf("coherence: core %d out of range [0,%d)", core, d.nCores))
	}
}

// Read performs a coherent load by the given cluster-local core.
func (d *Directory) Read(core int, addr uint64) Outcome {
	d.checkCore(core)
	d.Stats.Reads.Inc()
	l1 := d.caches[core]
	if l1.Access(addr, false).Hit {
		d.Stats.L1Hits.Inc()
		return Outcome{L1Hit: true}
	}

	// Directory consultation.
	d.Stats.DirectoryLookups.Inc()
	b := d.block(addr)
	e := d.entries[b]
	out := Outcome{SourcedFromCore: -1}

	if e.owner >= 0 && e.sharers != 0 && d.caches[e.owner].State(addr) == Modified {
		// Dirty remote copy: forward and downgrade to Shared, pushing
		// the dirty data to L2.
		owner := int(e.owner)
		d.caches[owner].SetState(addr, Shared)
		d.Stats.CacheToCache.Inc()
		d.Stats.WritebacksToL2.Inc()
		out.SourcedFromCore = owner
		out.DirtyForward = true
		out.WritebacksToL2++
	} else if e.sharers != 0 {
		// Clean copy elsewhere: forward from the first sharer; any
		// Exclusive holder downgrades to Shared.
		src := firstSet(e.sharers)
		if d.caches[src].State(addr) == Exclusive {
			d.caches[src].SetState(addr, Shared)
		}
		d.Stats.CacheToCache.Inc()
		out.SourcedFromCore = src
	} else {
		out.NeedsL2 = true
		d.Stats.FillsFromL2.Inc()
	}

	newState := Shared
	if e.sharers == 0 {
		newState = Exclusive
	}
	fill := d.caches[core].FillState(addr, newState)
	d.handleEviction(core, fill, &out)

	e = d.entries[b] // reload: eviction may have touched this entry
	e.sharers |= 1 << uint(core)
	if newState == Exclusive {
		e.owner = int8(core)
	} else {
		e.owner = -1
	}
	d.entries[b] = e
	return out
}

// Write performs a coherent store by the given cluster-local core.
func (d *Directory) Write(core int, addr uint64) Outcome {
	d.checkCore(core)
	d.Stats.Writes.Inc()
	l1 := d.caches[core]
	b := d.block(addr)
	st := l1.State(addr)

	switch st {
	case Modified:
		l1.Access(addr, true)
		d.Stats.L1Hits.Inc()
		return Outcome{L1Hit: true}
	case Exclusive:
		// Silent E->M upgrade, no traffic.
		l1.Access(addr, true) // marks dirty (Modified)
		d.Stats.L1Hits.Inc()
		e := d.entries[b]
		e.owner = int8(core)
		d.entries[b] = e
		return Outcome{L1Hit: true}
	case Shared:
		// Upgrade: invalidate all remote sharers.
		d.Stats.DirectoryLookups.Inc()
		out := Outcome{L1Hit: true, Upgrade: true, SourcedFromCore: -1}
		d.invalidateOthers(core, addr, &out)
		l1.Access(addr, true)
		d.Stats.Upgrades.Inc()
		e := d.entries[b]
		e.sharers = 1 << uint(core)
		e.owner = int8(core)
		d.entries[b] = e
		return out
	}

	// Write miss: read-for-ownership.
	d.Stats.DirectoryLookups.Inc()
	e := d.entries[b]
	out := Outcome{SourcedFromCore: -1}
	if e.owner >= 0 && e.sharers != 0 && d.caches[e.owner].State(addr) == Modified {
		owner := int(e.owner)
		d.Stats.CacheToCache.Inc()
		out.SourcedFromCore = owner
		out.DirtyForward = true
	} else if e.sharers != 0 {
		out.SourcedFromCore = firstSet(e.sharers)
		d.Stats.CacheToCache.Inc()
	} else {
		out.NeedsL2 = true
		d.Stats.FillsFromL2.Inc()
	}
	d.invalidateOthers(core, addr, &out)

	fill := d.caches[core].FillState(addr, Modified)
	d.handleEviction(core, fill, &out)

	d.entries[b] = dirEntry{sharers: 1 << uint(core), owner: int8(core)}
	return out
}

// invalidateOthers removes every remote copy of addr and accounts the
// traffic in out.
func (d *Directory) invalidateOthers(core int, addr uint64, out *Outcome) {
	b := d.block(addr)
	e := d.entries[b]
	for c := 0; c < d.nCores; c++ {
		if c == core || e.sharers&(1<<uint(c)) == 0 {
			continue
		}
		r := d.caches[c].Invalidate(addr)
		if r.Hit {
			out.Invalidations++
			d.Stats.Invalidations.Inc()
			if r.Writeback {
				out.WritebacksToL2++
				d.Stats.WritebacksToL2.Inc()
			}
		}
	}
	e.sharers &= 1 << uint(core)
	if e.owner >= 0 && e.owner != int8(core) {
		e.owner = -1
	}
	d.entries[b] = e
}

// handleEviction reconciles the directory after a fill displaced a
// victim line.
func (d *Directory) handleEviction(core int, fill mem.AccessResult, out *Outcome) {
	if !fill.Evicted {
		return
	}
	d.Stats.SilentEvictNotify.Inc()
	vb := d.block(fill.EvictedAddr)
	e := d.entries[vb]
	e.sharers &^= 1 << uint(core)
	if e.owner == int8(core) {
		e.owner = -1
	}
	if e.sharers == 0 {
		delete(d.entries, vb)
	} else {
		d.entries[vb] = e
	}
	out.EvictedDirty = fill.Writeback
	if fill.Writeback {
		out.WritebacksToL2++
		d.Stats.WritebacksToL2.Inc()
	}
}

// FlushCore invalidates every line held by one core (used when a core is
// power-gated under PR-STT-CC consolidation — the private-cache design
// loses all its locality, which is exactly why the paper's shared design
// consolidates so cheaply). It returns the number of lines lost and the
// number of dirty writebacks generated.
func (d *Directory) FlushCore(core int) (lines, writebacks int) {
	d.checkCore(core)
	c := d.caches[core]
	// Walk the directory rather than the cache: entries carry the
	// block addresses.
	for b, e := range d.entries {
		if e.sharers&(1<<uint(core)) == 0 {
			continue
		}
		r := c.Invalidate(b * d.blockBytes)
		if !r.Hit {
			continue
		}
		lines++
		if r.Writeback {
			writebacks++
			d.Stats.WritebacksToL2.Inc()
		}
		e.sharers &^= 1 << uint(core)
		if e.owner == int8(core) {
			e.owner = -1
		}
		if e.sharers == 0 {
			delete(d.entries, b)
		} else {
			d.entries[b] = e
		}
	}
	return lines, writebacks
}

// Sharers returns how many caches currently hold addr.
func (d *Directory) Sharers(addr uint64) int {
	e := d.entries[d.block(addr)]
	n := 0
	for m := e.sharers; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// firstSet returns the index of the lowest set bit.
func firstSet(mask uint64) int {
	i := 0
	for mask&1 == 0 {
		mask >>= 1
		i++
	}
	return i
}

// WouldHit probes whether a store by the given core would hit its L1
// in a writable state (Modified or Exclusive) without mutating any
// state — used by the cluster's store-buffer back-pressure check.
func (d *Directory) WouldHit(core int, addr uint64) bool {
	d.checkCore(core)
	st := d.caches[core].State(addr)
	return st == Modified || st == Exclusive || st == Shared
}
