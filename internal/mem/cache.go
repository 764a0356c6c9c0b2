// Package mem implements the storage structures of the simulated memory
// hierarchy: set-associative cache arrays with true-LRU replacement and a
// fixed-latency DRAM model. The arrays store only tags and small state
// bytes — the simulator is a timing model, so no data payloads exist.
//
// Addresses are byte addresses; each cache derives its own block and set
// decomposition from its config.CacheParams. Set counts need not be
// powers of two (the 48 MB L3 has 3x2^k sets); indexing masks when the
// set count is a power of two and uses a fixed-point reciprocal
// (Lemire-style fastmod) otherwise, so no access ever pays a hardware
// divide.
package mem

import (
	"fmt"
	"math/bits"

	"respin/internal/config"
	"respin/internal/endurance"
	"respin/internal/faults"
	"respin/internal/stats"
)

// LineState is an opaque per-line state byte. The mem package only
// distinguishes StateInvalid from everything else; richer protocols
// (MESI) layer their states on top.
type LineState uint8

// Line states used by plain (non-coherent) caches. Coherence protocols
// define additional states in their own packages.
const (
	// StateInvalid marks an empty way.
	StateInvalid LineState = 0
	// StateValid marks a clean valid line.
	StateValid LineState = 1
	// StateDirty marks a modified line that needs writeback on
	// eviction.
	StateDirty LineState = 2
)

// AccessResult reports the outcome of a cache access or fill.
type AccessResult struct {
	// Hit is true when the block was present.
	Hit bool
	// Evicted is true when a valid line was displaced.
	Evicted bool
	// EvictedAddr is the byte address of the displaced block.
	EvictedAddr uint64
	// EvictedState is the state the displaced line held.
	EvictedState LineState
	// Writeback is true when the displaced line was dirty.
	Writeback bool
	// Bypassed is true when a fill found every way of the target set
	// permanently retired (endurance wear-out): nothing was installed
	// and the access stream continues uncached for that set.
	Bypassed bool
}

// Stats aggregates cache event counts.
type Stats struct {
	Reads, Writes       stats.Counter
	ReadMisses          stats.Counter
	WriteMisses         stats.Counter
	Evictions           stats.Counter
	Writebacks          stats.Counter
	Invalidations       stats.Counter
	InvalidationsDirty  stats.Counter
	FillsFromLowerLevel stats.Counter
	// ECCCorrected and ECCUncorrectable count injected read bit-flip
	// events by outcome under the configured ECC scheme (zero unless a
	// fault injector is attached — SRAM arrays at low voltage).
	ECCCorrected, ECCUncorrectable stats.Counter
}

// MissRate returns combined read+write miss rate.
func (s *Stats) MissRate() float64 {
	total := s.Reads.Value() + s.Writes.Value()
	return stats.Ratio(s.ReadMisses.Value()+s.WriteMisses.Value(), total)
}

// Cache is a set-associative tag array with true LRU replacement.
//
// The per-way metadata is laid out structure-of-arrays: parallel
// tags/state/age slices indexed by set*assoc+way, 10 bytes per way. The
// lookup scan touches only the contiguous tag column (the state byte is
// consulted only on a tag match), which is what a hardware tag array
// does and what keeps the per-access footprint minimal.
type Cache struct {
	params config.CacheParams
	// SoA columns, numSets*assoc entries each, set-major.
	tags  []uint64
	state []LineState
	// age is each way's LRU rank within its set: 0 for a way never
	// stamped, else 1 for the most recently used up to k for the least,
	// where k is the number of stamped ways in the set (see stamp).
	age []uint8
	// written is the cache cycle of the last data write, the retention
	// deadline anchor for relaxed-retention STT arrays. It exists only
	// while an endurance model with retention is attached; nil
	// otherwise.
	written []uint64
	// touched holds one bit per way, set for every way whose columns
	// may be non-zero: FillState sets it when it installs a victim way
	// (the only write that turns an all-zero way non-zero) and Restore
	// sets it for every way it restores. No path zeroes a column, so
	// every other way is all-zero and Snapshot and Restore visit only
	// the touched ways.
	touched []uint64
	assoc   int
	numSets uint64
	// setMask strength-reduces the set-index modulo to a mask when the
	// set count is a power of two (every L1/L2 geometry); maskable gates
	// it. The 48 MB L3 has 3x2^k sets and uses the magic reciprocal
	// (magicHi:magicLo = ceil(2^128/numSets)) instead of a divide.
	setMask          uint64
	maskable         bool
	magicHi, magicLo uint64
	blockShift       uint
	faults           *faults.Injector
	// endur, when attached, models finite write endurance and relaxed
	// retention for STT arrays. wearOn mirrors the attachment as a mode
	// flag so hot paths hoist the model checks into one branch;
	// retention/scrubPeriod cache the attached model's deadlines; now is
	// the owner-advanced cache-cycle clock retention stamps are taken
	// from; rotation is the wear-leveling set-index offset.
	endur       *endurance.Array
	wearOn      bool
	retention   uint64
	scrubPeriod uint64
	now         uint64
	rotation    uint64
	Stats       Stats
}

// NewCache builds a cache from validated geometry parameters.
func NewCache(p config.CacheParams) *Cache {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("mem: invalid cache params: %v", err))
	}
	shift := uint(0)
	for 1<<shift < p.BlockBytes {
		shift++
	}
	if 1<<shift != p.BlockBytes {
		panic(fmt.Sprintf("mem: block size %d not a power of two", p.BlockBytes))
	}
	sets := p.Sets()
	ways := sets * p.Assoc
	// Zero-filled columns are a valid state: every way invalid and
	// never stamped.
	c := &Cache{
		params:     p,
		tags:       make([]uint64, ways),
		state:      make([]LineState, ways),
		age:        make([]uint8, ways),
		touched:    make([]uint64, (ways+63)/64),
		assoc:      p.Assoc,
		numSets:    uint64(sets),
		blockShift: shift,
	}
	if c.numSets&(c.numSets-1) == 0 {
		c.maskable = true
		c.setMask = c.numSets - 1
	} else {
		// ceil(2^128 / numSets): exact n mod d for every uint64 n as
		// long as d*(2^64-1) <= 2^128, which always holds (Lemire, Kaser
		// & Kurz, "Faster remainder by direct computation", 2019).
		q1, r1 := bits.Div64(1, 0, c.numSets)
		q2, _ := bits.Div64(r1, 0, c.numSets)
		c.magicHi, c.magicLo = q1, q2+1
	}
	return c
}

// Params returns the cache geometry.
func (c *Cache) Params() config.CacheParams { return c.params }

// AttachFaults connects a fault injector: every read hit draws a bit-flip
// outcome for the delivered word, counted as corrected or uncorrectable
// per the injector's ECC scheme. A nil injector detaches.
func (c *Cache) AttachFaults(in *faults.Injector) { c.faults = in }

// AttachEndurance connects an endurance/retention model: data-array
// writes charge per-way budgets (retiring exhausted ways), lines carry
// retention deadlines, and fills skip retired ways. The owner attaches
// before the first access, keeps the cache clock current via SetNow and
// drives Scrub when a.ScrubDue. A model with retention allocates the
// write-stamp column; one without, or a nil array (which detaches),
// frees it.
func (c *Cache) AttachEndurance(a *endurance.Array) {
	c.endur = a
	c.wearOn = a != nil
	c.retention = a.RetentionCycles()
	c.scrubPeriod = a.ScrubPeriod()
	switch {
	case c.retention == 0:
		c.written = nil
	case c.written == nil:
		c.written = make([]uint64, len(c.tags))
	}
}

// Endurance returns the attached endurance model (nil when detached).
func (c *Cache) Endurance() *endurance.Array { return c.endur }

// SetNow advances the cache-cycle clock used for retention stamping.
// Owners call it at deterministic points (cluster tick, L3 drain), so
// stamps never depend on worker interleave.
func (c *Cache) SetNow(now uint64) {
	if now > c.now {
		c.now = now
	}
}

// BlockAddr returns the block-aligned identifier for a byte address.
func (c *Cache) BlockAddr(addr uint64) uint64 { return addr >> c.blockShift }

// setIndex maps a block address to its set. The wear-leveling rotation
// offset (zero unless the endurance model rotates) remaps the whole
// index space so hot sets migrate across the array.
func (c *Cache) setIndex(block uint64) uint64 {
	block += c.rotation
	if c.maskable {
		return block & c.setMask
	}
	return c.fastMod(block)
}

// fastMod computes n % numSets without a divide: the 128-bit fixed
// point M = ceil(2^128/d) satisfies n mod d = floor(((M*n) mod 2^128) *
// d / 2^128) exactly for every uint64 n. Two widening multiplies and an
// add-with-carry replace the ~30-cycle hardware divide the 3x2^k-set
// L3 paid per access.
func (c *Cache) fastMod(n uint64) uint64 {
	// lb = (M * n) mod 2^128, computed as magicLo*n (full 128 bits)
	// plus magicHi*n shifted into the high word (overflow discarded).
	lbHi, lbLo := bits.Mul64(c.magicLo, n)
	lbHi += c.magicHi * n
	// floor(lb * d / 2^128): the high word of the 192-bit product.
	xHi, xLo := bits.Mul64(lbHi, c.numSets)
	yHi, _ := bits.Mul64(lbLo, c.numSets)
	_, carry := bits.Add64(xLo, yHi, 0)
	return xHi + carry
}

// find returns the set index and the global way index (set*assoc+way)
// of the block, or -1. The scan touches only the contiguous tag column;
// the state byte is checked on tag match alone (an invalidated way may
// retain a stale tag).
func (c *Cache) find(block uint64) (uint64, int) {
	si := c.setIndex(block)
	base := si * uint64(c.assoc)
	end := base + uint64(c.assoc)
	tags := c.tags[base:end]
	for j := range tags {
		if tags[j] == block && c.state[base+uint64(j)] != StateInvalid {
			return si, int(base) + j
		}
	}
	return si, -1
}

// expiredAt reports whether the valid line at global way index i has
// passed its retention deadline (always false without an attached
// retention model). Pure observers (State, Contains) use it without
// mutating; mutation entry points (Access, FillState, SetState,
// Invalidate, Scrub) reap expired lines and account the loss.
func (c *Cache) expiredAt(i int) bool {
	return c.retention > 0 && c.state[i] != StateInvalid && c.now-c.written[i] > c.retention
}

// Contains probes for a block without updating LRU or stats.
func (c *Cache) Contains(addr uint64) bool {
	_, i := c.find(c.BlockAddr(addr))
	return i >= 0 && !c.expiredAt(i)
}

// State returns the line state of a block (StateInvalid if absent or
// retention-expired), without updating LRU or stats.
func (c *Cache) State(addr uint64) LineState {
	_, i := c.find(c.BlockAddr(addr))
	if i < 0 || c.expiredAt(i) {
		return StateInvalid
	}
	return c.state[i]
}

// stamp makes way i of the set starting at global way index base the
// set's most recently used. It is true LRU over ranks instead of
// timestamps: every stamped way ranked ahead of i (rank below i's) ages
// by one and i takes rank 1. A never-stamped way (rank 0) ranks behind
// every stamped one, so stamping it ages them all. The non-zero ranks of
// a set therefore stay exactly {1..k} in recency order, and the largest
// rank marks the way a timestamp LRU would call oldest. Callers skip
// the call when i already has rank 1, the common re-hit.
func (c *Cache) stamp(base, i int) {
	// lim wraps to 255 for a never-stamped way, above every rank
	// (assoc <= 255), and a-1 wraps to 255 for rank 0, so one unsigned
	// compare selects exactly the stamped ways ahead of i.
	lim := c.age[i] - 1
	ages := c.age[base : base+c.assoc]
	for j, a := range ages {
		if a-1 < lim {
			ages[j] = a + 1
		}
	}
	c.age[i] = 1
}

// Access performs a read or write lookup. On a hit the line becomes the
// set's most recently used and, for writes, dirty. On a miss nothing is
// allocated — callers model the miss path and then Fill.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	block := c.BlockAddr(addr)
	if write {
		c.Stats.Writes.Inc()
	} else {
		c.Stats.Reads.Inc()
	}
	si, i := c.find(block)
	if i >= 0 && c.expiredAt(i) {
		// The line's retention deadline passed before anything touched
		// it: the data is gone. Reap it and fall through to the miss
		// path — the caller's normal miss handling re-fetches the block
		// from below, which is exactly the "retention loss charged as a
		// re-fetch" cost model.
		c.endur.RetentionLoss(c.state[i] == StateDirty)
		c.state[i] = StateInvalid
		i = -1
	}
	if i < 0 {
		if write {
			c.Stats.WriteMisses.Inc()
		} else {
			c.Stats.ReadMisses.Inc()
		}
		return AccessResult{}
	}
	if c.age[i] != 1 {
		c.stamp(int(si)*c.assoc, i)
	}
	if write {
		c.state[i] = StateDirty
		if c.wearOn {
			if c.written != nil {
				c.written[i] = c.now
			}
			c.recordWrite(si, i)
			c.maybeRotate()
		}
	} else if c.faults != nil {
		switch c.faults.SRAMRead() {
		case faults.ReadCorrected:
			c.Stats.ECCCorrected.Inc()
		case faults.ReadUncorrectable:
			c.Stats.ECCUncorrectable.Inc()
		}
	}
	return AccessResult{Hit: true}
}

// recordWrite charges one data-array write against the way at global
// index i of set si on the attached endurance model and handles way
// retirement: a way whose budget just ran out is dead silicon, so
// whatever line it held is dropped on the spot (the next access misses
// and re-fetches).
func (c *Cache) recordWrite(si uint64, i int) {
	if c.endur == nil {
		return
	}
	if c.endur.RecordWrite(int(si), i-int(si)*c.assoc, c.now) {
		c.endur.RetireLoss(c.state[i] == StateDirty)
		c.state[i] = StateInvalid
	}
}

// maybeRotate advances the wear-leveling set-index rotation once enough
// writes accrued. Remapping invalidates every resident tag's set
// assignment, so the rotation flushes the array (dirty lines write
// back, counted in Stats and in the endurance rotation accounting) —
// the Mittal-style trade: pay a periodic flush to spread hot-set wear
// across all sets.
func (c *Cache) maybeRotate() {
	if c.endur == nil || !c.endur.RotationDue() {
		return
	}
	wb := c.Clear()
	c.rotation++
	c.endur.Rotated(wb)
}

// Fill allocates a block (after a miss was serviced by the next level),
// evicting the LRU way if the set is full. When dirty is true the new
// line is installed in StateDirty (write-allocate stores).
func (c *Cache) Fill(addr uint64, dirty bool) AccessResult {
	st := StateValid
	if dirty {
		st = StateDirty
	}
	return c.FillState(addr, st)
}

// FillState allocates a block with an explicit protocol state.
func (c *Cache) FillState(addr uint64, st LineState) AccessResult {
	if st == StateInvalid {
		panic("mem: cannot fill with StateInvalid")
	}
	block := c.BlockAddr(addr)
	c.Stats.FillsFromLowerLevel.Inc()
	si, i := c.find(block)
	base := int(si) * c.assoc
	if i >= 0 {
		// Refill of a present block updates state; the incoming data
		// replaces whatever the line held, so an expired old copy only
		// matters for loss accounting (its data was already gone).
		if c.expiredAt(i) {
			c.endur.RetentionLoss(c.state[i] == StateDirty)
		}
		c.state[i] = st
		if c.age[i] != 1 {
			c.stamp(base, i)
		}
		if c.wearOn {
			if c.written != nil {
				c.written[i] = c.now
			}
			c.recordWrite(si, i)
			c.maybeRotate()
		}
		return AccessResult{Hit: true}
	}
	// Victim selection folds over the SoA state/age columns: first
	// invalid way wins, otherwise the least-recently-used one, the
	// largest rank (an invalid way short-circuits, so a non-invalid
	// victim candidate is always valid and the LRU compare needs no
	// state test). With the endurance model attached, permanently
	// retired ways are skipped: the array keeps operating at reduced
	// associativity, and the ranks of the live ways keep their relative
	// order. A set with no live way left cannot hold the block at all —
	// the fill is bypassed (and the wear-out is already recorded as the
	// array's end of life).
	victim := -1
	if !c.wearOn {
		for j := base; j < base+c.assoc; j++ {
			if c.state[j] == StateInvalid {
				victim = j
				break
			}
			if victim < 0 || c.age[j] > c.age[victim] {
				victim = j
			}
		}
	} else {
		for j := base; j < base+c.assoc; j++ {
			if c.endur.Retired(int(si), j-base) {
				continue
			}
			if c.state[j] == StateInvalid {
				victim = j
				break
			}
			if victim < 0 || c.age[j] > c.age[victim] {
				victim = j
			}
		}
	}
	if victim < 0 {
		return AccessResult{Bypassed: true}
	}
	res := AccessResult{}
	if c.state[victim] != StateInvalid {
		res.Evicted = true
		res.EvictedAddr = c.tags[victim] << c.blockShift
		res.EvictedState = c.state[victim]
		c.Stats.Evictions.Inc()
		if c.expiredAt(victim) {
			// The victim expired before eviction: its data is lost, so
			// no writeback happens — the loss is accounted instead.
			c.endur.RetentionLoss(c.state[victim] == StateDirty)
		} else {
			res.Writeback = c.state[victim] == StateDirty
			if res.Writeback {
				c.Stats.Writebacks.Inc()
			}
		}
	}
	c.touched[victim>>6] |= 1 << (victim & 63)
	c.tags[victim] = block
	c.state[victim] = st
	if c.age[victim] != 1 {
		c.stamp(base, victim)
	}
	if c.wearOn {
		if c.written != nil {
			c.written[victim] = c.now
		}
		c.recordWrite(si, victim)
		c.maybeRotate()
	}
	return res
}

// SetState overwrites the protocol state of a present block and reports
// whether it was present.
func (c *Cache) SetState(addr uint64, st LineState) bool {
	if st == StateInvalid {
		return c.Invalidate(addr).Hit
	}
	_, i := c.find(c.BlockAddr(addr))
	if i < 0 {
		return false
	}
	if c.expiredAt(i) {
		c.endur.RetentionLoss(c.state[i] == StateDirty)
		c.state[i] = StateInvalid
		return false
	}
	c.state[i] = st
	return true
}

// Invalidate removes a block. The result reports presence and whether
// the invalidated line was dirty (Writeback set). A retention-expired
// line is reaped as a loss and reported absent — its data no longer
// exists, so there is nothing to invalidate or write back.
func (c *Cache) Invalidate(addr uint64) AccessResult {
	_, i := c.find(c.BlockAddr(addr))
	if i < 0 {
		return AccessResult{}
	}
	if c.expiredAt(i) {
		c.endur.RetentionLoss(c.state[i] == StateDirty)
		c.state[i] = StateInvalid
		return AccessResult{}
	}
	dirty := c.state[i] == StateDirty
	c.Stats.Invalidations.Inc()
	if dirty {
		c.Stats.InvalidationsDirty.Inc()
	}
	c.state[i] = StateInvalid
	return AccessResult{Hit: true, Writeback: dirty}
}

// Occupancy returns the number of valid lines (for tests and reports
// only). Only touched ways can be valid, so it visits those alone.
func (c *Cache) Occupancy() int {
	n := 0
	c.forTouched(func(i int) {
		if c.state[i] != StateInvalid {
			n++
		}
	})
	return n
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

// Capacity returns the total number of ways in the array.
func (c *Cache) Capacity() int { return len(c.state) }

// Clear invalidates every line (used when a core is power-gated and its
// private caches lose their content). Dirty lines are counted as
// writebacks and the count returned. Only touched ways can be valid, so
// it visits those alone.
func (c *Cache) Clear() (writebacks int) {
	c.forTouched(func(i int) {
		switch c.state[i] {
		case StateInvalid:
			return
		case StateDirty:
			writebacks++
			c.Stats.Writebacks.Inc()
		}
		c.state[i] = StateInvalid
		c.Stats.Invalidations.Inc()
	})
	return writebacks
}

// LiveCapacity returns the number of ways still in service (Capacity
// minus permanently retired ways).
func (c *Cache) LiveCapacity() int {
	return len(c.state) - c.endur.RetiredWays()
}

// Scrub performs one background retention scrub pass at cycle now:
// every valid line is inspected, lines whose deadline already passed
// are reaped as retention losses, and lines that would expire before
// the next pass are refreshed (rewritten in place — a real data-array
// write, so refreshes both reset the retention deadline and consume
// endurance budget). It returns the number of lines refreshed so the
// owner can charge the write energy. No-op without a retention model.
// Only touched ways can be valid, so the pass visits those alone, in
// the set/way order of a full sweep.
func (c *Cache) Scrub(now uint64) (refreshed int) {
	if c.endur == nil || c.retention == 0 {
		return 0
	}
	c.SetNow(now)
	c.forTouched(func(w int) {
		if c.state[w] == StateInvalid {
			return
		}
		if c.expiredAt(w) {
			c.endur.RetentionLoss(c.state[w] == StateDirty)
			c.state[w] = StateInvalid
			return
		}
		if c.written[w]+c.retention < now+c.scrubPeriod {
			c.written[w] = now
			refreshed++
			c.recordWrite(uint64(w/c.assoc), w)
		}
	})
	c.endur.ScrubDone(now, refreshed)
	c.maybeRotate()
	return refreshed
}
