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
// Logically every set has assoc ways, addressed by the global way index
// set*assoc+way. Physically a set owns only a block of its first ways,
// held in a pool shared by the whole array: per-way metadata lives in
// parallel pool columns (tags, state, age, and written with retention),
// and one packed word per set holds its block's pool offset and
// capacity. A set starts with no block; a fill that finds no invalid,
// unretired way in it grows the block (capacity 1, 2, 4, ... up to
// assoc) by moving it to the pool's end. A way beyond its set's block is
// all-zero by definition: invalid, rank 0 and never written, hence never
// retired. Victims take the first invalid unretired way, and a grown
// block's new ways are its first invalid ones, so the array chooses
// exactly the victims of a flat set*assoc layout while costing what the
// run filled. The lookup scan touches only the block's contiguous tag
// column (the state byte is consulted only on a tag match), which is
// what a hardware tag array does.
type Cache struct {
	params config.CacheParams
	// sets holds one word per set: its block's pool offset shifted left
	// by capBits, or'd with the block's capacity (0: no block).
	sets []uint32
	// Pool columns, one entry per pool way. Blocks are contiguous runs
	// in them; ways between blocks belong to outgrown blocks and are
	// dropped when the pool is next reallocated (see grow).
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
	// blocked is the summed capacity of every set's block: the pool
	// ways a compacting reallocation keeps.
	blocked int
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

// capBits is the width of a set word's capacity field (assoc <= 255);
// the remaining bits hold the block's pool offset, which bounds the
// pool, and so the array, below maxPoolWays ways.
const (
	capBits     = 8
	capMask     = 1<<capBits - 1
	maxPoolWays = 1 << (32 - capBits)
)

// minPoolSlack is the least number of free ways a pool reallocation
// leaves, so a small array does not reallocate on every growth.
const minPoolSlack = 1024

// NewCache builds a cache from validated geometry parameters. It
// allocates one word per set; the way pool grows as fills need it.
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
	if poolLimit(ways) >= maxPoolWays {
		panic(fmt.Sprintf("mem: %d ways exceed the way pool's reach", ways))
	}
	// Zero-filled set words are a valid state: no set has a block, so
	// every way is invalid and never stamped.
	c := &Cache{
		params:     p,
		sets:       make([]uint32, sets),
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

// poolLimit is the most ways a pool of an array of the given way count
// ever holds: a full array needs exactly ways, and the eighth above it
// keeps reallocations amortized once the array is nearly full.
func poolLimit(ways int) int { return ways + ways/8 }

// block returns the pool offset and capacity of set si's block.
func (c *Cache) block(si uint64) (off, n int) {
	w := c.sets[si]
	return int(w >> capBits), int(w & capMask)
}

// blockCap is the capacity a block of capacity n grows to to hold need
// ways: doubling from n (from 1 for a set with no block) up to assoc.
func (c *Cache) blockCap(n, need int) int {
	n = max(n, 1)
	for n < need {
		n = min(2*n, c.assoc)
	}
	return n
}

// grow gives set si a block of blockCap(n, need) ways, n its current
// capacity, and returns the new block's offset. The block moves to the
// pool's end with its ways copied and the new ways zero; the old block
// is left behind. When the pool has no room it is reallocated compacted (see
// compact), so no outgrown block survives a reallocation.
func (c *Cache) grow(si uint64, need int) int {
	off, n := c.block(si)
	grown := c.blockCap(n, need)
	c.blocked += grown - n
	at := len(c.tags)
	if at+grown > cap(c.tags) {
		return c.compact(si, grown)
	}
	c.tags = c.tags[:at+grown]
	c.state = c.state[:at+grown]
	c.age = c.age[:at+grown]
	copy(c.tags[at:], c.tags[off:off+n])
	copy(c.state[at:], c.state[off:off+n])
	copy(c.age[at:], c.age[off:off+n])
	if c.written != nil {
		c.written = c.written[:at+grown]
		copy(c.written[at:], c.written[off:off+n])
	}
	c.sets[si] = uint32(at)<<capBits | uint32(grown)
	return at
}

// newPool allocates zeroed pool columns of length c.blocked with room
// for half as many ways again (at least minPoolSlack more, at most
// poolLimit in all), and a write-stamp column when the array keeps
// one. Growing by half keeps a deep run's pool near what it fills
// while the reallocations of its whole growth allocate less than a
// flat layout's columns.
func (c *Cache) newPool() (tags []uint64, state []LineState, age []uint8, written []uint64) {
	size := min(c.blocked+max(c.blocked/2, minPoolSlack), poolLimit(c.Capacity()))
	tags = make([]uint64, c.blocked, size)
	state = make([]LineState, c.blocked, size)
	age = make([]uint8, c.blocked, size)
	if c.written != nil {
		written = make([]uint64, c.blocked, size)
	}
	return tags, state, age, written
}

// compact reallocates the pool: every set's block is copied, in set
// order, into fresh columns (newPool), set gi's block with capacity
// grown. It returns set gi's new offset. A full array's pool is
// therefore at most poolLimit ways, and the next reallocation comes
// only after at least an eighth of the kept ways more is appended, so
// the copying costs O(1) per appended way.
func (c *Cache) compact(gi uint64, grown int) int {
	tags, state, age, written := c.newPool()
	at, gat := 0, 0
	for si, w := range c.sets {
		if w == 0 && uint64(si) != gi {
			continue
		}
		off, n := int(w>>capBits), int(w&capMask)
		copy(tags[at:], c.tags[off:off+n])
		copy(state[at:], c.state[off:off+n])
		copy(age[at:], c.age[off:off+n])
		if written != nil {
			copy(written[at:], c.written[off:off+n])
		}
		if uint64(si) == gi {
			n, gat = grown, at
		}
		c.sets[si] = uint32(at)<<capBits | uint32(n)
		at += n
	}
	c.tags, c.state, c.age, c.written = tags, state, age, written
	return gat
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
// write-stamp pool column; one without, or a nil array (which
// detaches), frees it.
func (c *Cache) AttachEndurance(a *endurance.Array) {
	c.endur = a
	c.wearOn = a != nil
	c.retention = a.RetentionCycles()
	c.scrubPeriod = a.ScrubPeriod()
	switch {
	case c.retention == 0:
		c.written = nil
	case c.written == nil:
		c.written = make([]uint64, len(c.tags), cap(c.tags))
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

// find returns the set index of the block, the pool offset of that
// set's block of ways, and the pool index of the way holding the block,
// or -1. The scan touches only the block's contiguous tag column; the
// state byte is checked on tag match alone (an invalidated way may
// retain a stale tag).
func (c *Cache) find(block uint64) (si uint64, off, p int) {
	si = c.setIndex(block)
	w := c.sets[si]
	off = int(w >> capBits)
	tags := c.tags[off : off+int(w&capMask)]
	for j := range tags {
		if tags[j] == block && c.state[off+j] != StateInvalid {
			return si, off, off + j
		}
	}
	return si, off, -1
}

// expiredAt reports whether the valid line at pool index p has passed
// its retention deadline (always false without an attached retention
// model). Pure observers (State, Contains) use it without mutating;
// mutation entry points (Access, FillState, SetState, Invalidate,
// Scrub) reap expired lines and account the loss.
func (c *Cache) expiredAt(p int) bool {
	return c.retention > 0 && c.state[p] != StateInvalid && c.now-c.written[p] > c.retention
}

// Contains probes for a block without updating LRU or stats.
func (c *Cache) Contains(addr uint64) bool {
	_, _, p := c.find(c.BlockAddr(addr))
	return p >= 0 && !c.expiredAt(p)
}

// State returns the line state of a block (StateInvalid if absent or
// retention-expired), without updating LRU or stats.
func (c *Cache) State(addr uint64) LineState {
	_, _, p := c.find(c.BlockAddr(addr))
	if p < 0 || c.expiredAt(p) {
		return StateInvalid
	}
	return c.state[p]
}

// stamp makes the way at pool index p of set si's block the set's most
// recently used. It is true LRU over ranks instead of timestamps: every
// stamped way ranked ahead of p (rank below p's) ages by one and p
// takes rank 1. A never-stamped way (rank 0) ranks behind every stamped
// one, so stamping it ages them all. The non-zero ranks of a set
// therefore stay exactly {1..k} in recency order, and the largest rank
// marks the way a timestamp LRU would call oldest. Ways beyond the
// block have rank 0, which stamping leaves alone, so only the block is
// visited. Callers skip the call when p already has rank 1, the common
// re-hit.
func (c *Cache) stamp(si uint64, p int) {
	off, n := c.block(si)
	// lim wraps to 255 for a never-stamped way, above every rank
	// (assoc <= 255), and a-1 wraps to 255 for rank 0, so one unsigned
	// compare selects exactly the stamped ways ahead of p.
	lim := c.age[p] - 1
	ages := c.age[off : off+n]
	for j, a := range ages {
		if a-1 < lim {
			ages[j] = a + 1
		}
	}
	c.age[p] = 1
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
	si, off, p := c.find(block)
	if p >= 0 && c.expiredAt(p) {
		// The line's retention deadline passed before anything touched
		// it: the data is gone. Reap it and fall through to the miss
		// path — the caller's normal miss handling re-fetches the block
		// from below, which is exactly the "retention loss charged as a
		// re-fetch" cost model.
		c.endur.RetentionLoss(c.state[p] == StateDirty)
		c.state[p] = StateInvalid
		p = -1
	}
	if p < 0 {
		if write {
			c.Stats.WriteMisses.Inc()
		} else {
			c.Stats.ReadMisses.Inc()
		}
		return AccessResult{}
	}
	if c.age[p] != 1 {
		c.stamp(si, p)
	}
	if write {
		c.state[p] = StateDirty
		if c.wearOn {
			if c.written != nil {
				c.written[p] = c.now
			}
			c.recordWrite(si, p-off, p)
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

// recordWrite charges one data-array write against way `way` of set si,
// held at pool index p, on the attached endurance model and handles way
// retirement: a way whose budget just ran out is dead silicon, so
// whatever line it held is dropped on the spot (the next access misses
// and re-fetches).
func (c *Cache) recordWrite(si uint64, way, p int) {
	if c.endur == nil {
		return
	}
	if c.endur.RecordWrite(int(si), way, c.now) {
		c.endur.RetireLoss(c.state[p] == StateDirty)
		c.state[p] = StateInvalid
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
	si, off, p := c.find(block)
	if p >= 0 {
		// Refill of a present block updates state; the incoming data
		// replaces whatever the line held, so an expired old copy only
		// matters for loss accounting (its data was already gone).
		if c.expiredAt(p) {
			c.endur.RetentionLoss(c.state[p] == StateDirty)
		}
		c.state[p] = st
		if c.age[p] != 1 {
			c.stamp(si, p)
		}
		if c.wearOn {
			if c.written != nil {
				c.written[p] = c.now
			}
			c.recordWrite(si, p-off, p)
			c.maybeRotate()
		}
		return AccessResult{Hit: true}
	}
	// Victim selection folds over the block's state/age columns: first
	// invalid way wins, otherwise the least-recently-used one, the
	// largest rank (an invalid way short-circuits, so a non-invalid
	// victim candidate is always valid and the LRU compare needs no
	// state test). With the endurance model attached, permanently
	// retired ways are skipped: the array keeps operating at reduced
	// associativity, and the ranks of the live ways keep their relative
	// order. A block with no invalid unretired way grows when the set
	// has ways beyond it: those are invalid, and the first unretired one
	// is the victim a flat layout would pick. A set with no live way
	// left cannot hold the block at all — the fill is bypassed (and the
	// wear-out is already recorded as the array's end of life).
	n := int(c.sets[si] & capMask)
	victim := -1
	if !c.wearOn {
		for j := off; j < off+n; j++ {
			if c.state[j] == StateInvalid {
				victim = j
				break
			}
			if victim < 0 || c.age[j] > c.age[victim] {
				victim = j
			}
		}
	} else {
		for j := off; j < off+n; j++ {
			if c.endur.Retired(int(si), j-off) {
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
	if (victim < 0 || c.state[victim] != StateInvalid) && n < c.assoc {
		way := n
		for c.wearOn && way < c.assoc && c.endur.Retired(int(si), way) {
			way++
		}
		if way < c.assoc {
			off = c.grow(si, way+1)
			victim = off + way
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
	way := victim - off
	c.tags[victim] = block
	c.state[victim] = st
	if c.age[victim] != 1 {
		c.stamp(si, victim)
	}
	if c.wearOn {
		if c.written != nil {
			c.written[victim] = c.now
		}
		c.recordWrite(si, way, victim)
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
	_, _, p := c.find(c.BlockAddr(addr))
	if p < 0 {
		return false
	}
	if c.expiredAt(p) {
		c.endur.RetentionLoss(c.state[p] == StateDirty)
		c.state[p] = StateInvalid
		return false
	}
	c.state[p] = st
	return true
}

// Invalidate removes a block. The result reports presence and whether
// the invalidated line was dirty (Writeback set). A retention-expired
// line is reaped as a loss and reported absent — its data no longer
// exists, so there is nothing to invalidate or write back.
func (c *Cache) Invalidate(addr uint64) AccessResult {
	_, _, p := c.find(c.BlockAddr(addr))
	if p < 0 {
		return AccessResult{}
	}
	if c.expiredAt(p) {
		c.endur.RetentionLoss(c.state[p] == StateDirty)
		c.state[p] = StateInvalid
		return AccessResult{}
	}
	dirty := c.state[p] == StateDirty
	c.Stats.Invalidations.Inc()
	if dirty {
		c.Stats.InvalidationsDirty.Inc()
	}
	c.state[p] = StateInvalid
	return AccessResult{Hit: true, Writeback: dirty}
}

// Occupancy returns the number of valid lines (for tests and reports
// only).
func (c *Cache) Occupancy() int {
	n := 0
	c.forBlocks(func(_ uint64, _, p int) {
		if c.state[p] != StateInvalid {
			n++
		}
	})
	return n
}

// forBlocks calls fn for every way of every set's block, in set order
// and so in ascending global index order, with its set, its way within
// the set and its pool index. Every way past its set's block is
// all-zero, so these are all the ways that can hold state. fn must not
// grow a block.
func (c *Cache) forBlocks(fn func(si uint64, way, p int)) {
	for si, w := range c.sets {
		off, n := int(w>>capBits), int(w&capMask)
		for way := range n {
			fn(uint64(si), way, off+way)
		}
	}
}

// Capacity returns the total number of ways in the array.
func (c *Cache) Capacity() int { return int(c.numSets) * c.assoc }

// Clear invalidates every line (used when a core is power-gated and its
// private caches lose their content). Dirty lines are counted as
// writebacks and the count returned.
func (c *Cache) Clear() (writebacks int) {
	c.forBlocks(func(_ uint64, _, p int) {
		switch c.state[p] {
		case StateInvalid:
			return
		case StateDirty:
			writebacks++
			c.Stats.Writebacks.Inc()
		}
		c.state[p] = StateInvalid
		c.Stats.Invalidations.Inc()
	})
	return writebacks
}

// LiveCapacity returns the number of ways still in service (Capacity
// minus permanently retired ways).
func (c *Cache) LiveCapacity() int {
	return c.Capacity() - c.endur.RetiredWays()
}

// Scrub performs one background retention scrub pass at cycle now:
// every valid line is inspected, lines whose deadline already passed
// are reaped as retention losses, and lines that would expire before
// the next pass are refreshed (rewritten in place — a real data-array
// write, so refreshes both reset the retention deadline and consume
// endurance budget). It returns the number of lines refreshed so the
// owner can charge the write energy. No-op without a retention model.
// The pass visits the ways that can be valid in the set/way order of a
// full sweep.
func (c *Cache) Scrub(now uint64) (refreshed int) {
	if c.endur == nil || c.retention == 0 {
		return 0
	}
	c.SetNow(now)
	c.forBlocks(func(si uint64, way, p int) {
		if c.state[p] == StateInvalid {
			return
		}
		if c.expiredAt(p) {
			c.endur.RetentionLoss(c.state[p] == StateDirty)
			c.state[p] = StateInvalid
			return
		}
		if c.written[p]+c.retention < now+c.scrubPeriod {
			c.written[p] = now
			refreshed++
			c.recordWrite(si, way, p)
		}
	})
	c.endur.ScrubDone(now, refreshed)
	c.maybeRotate()
	return refreshed
}
