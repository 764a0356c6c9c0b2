// Package sharedcache implements the paper's time-multiplexed shared
// cache controller (Section II.A, Figure 3).
//
// A cluster's cores, each running at an integer multiple (4x..6x) of the
// cache's 0.4 ns reference clock, submit requests that spend two fast
// cache cycles in wires and level shifters before reaching the
// controller. The controller keeps one request register and one priority
// shift register per core. The priority register is preloaded with one
// bit per remaining cache cycle of the issuing core's current clock
// period and right-shifts every cache cycle; among contending requests
// the controller services the one with the fewest remaining one-bits
// (soonest deadline), breaking ties pseudo-randomly. A read hit that
// cannot be serviced before its register drains receives a "half-miss":
// the core is notified, the register is reinitialised to a single bit,
// and the request completes (with priority) in a following cycle for a
// two-core-cycle total hit latency.
//
// Reads contend for the read port and writes (stores and line fills) for
// the write port — Table I gives the shared L1 one of each. STT-RAM's
// long write latency is pipelined inside the array (bank-interleaved
// write drivers), so the write port accepts one request per cache cycle
// while individual writes complete later; near-threshold cores never
// observe that latency, which is the paper's core argument for pairing
// STT-RAM with NT logic.
package sharedcache

import (
	"errors"
	"fmt"
	"math/bits"

	"respin/internal/config"
	"respin/internal/faults"
	"respin/internal/rng"
	"respin/internal/stats"
)

// TieBreak selects among equally urgent requests.
type TieBreak int

const (
	// RandomTie picks pseudo-randomly, as the paper describes.
	RandomTie TieBreak = iota
	// LowestCoreTie picks the lowest core id (deterministic; used to
	// reproduce Figure 3's worked example exactly).
	LowestCoreTie
)

// SelectPolicy chooses the arbitration algorithm.
type SelectPolicy int

const (
	// SoonestDeadline is the paper's priority-register arbitration.
	SoonestDeadline SelectPolicy = iota
	// FIFO services requests in arrival order regardless of the
	// requesting core's clock — the ablation baseline.
	FIFO
)

// Request is one cache access submitted by a core (or, with Core == -1,
// a line fill arriving from the L2 side).
type Request struct {
	// Core is the cluster-local requester id, or FillCore for fills.
	Core int
	// Write selects the write port (stores and fills) over the read
	// port (loads and instruction fetches).
	Write bool
	// Multiple is the requester's clock-period multiple; it sets the
	// deadline window. Fills use FillWindow.
	Multiple int
	// Tag carries opaque caller context through to the Serviced event.
	Tag uint64
}

// FillCore marks line-fill requests, which have no requesting core.
const FillCore = -1

// fillWindow is the deadline window granted to line fills, matching the
// slowest core so demand requests usually win ties.
const fillWindow = config.MaxCoreMultiple

// Serviced reports a completed request.
type Serviced struct {
	Req Request
	// Cycle is the cache cycle in which the access was performed.
	Cycle uint64
	// CoreCycles is the total service latency in the requester's core
	// cycles: 1 for an on-time hit, 2 after one half-miss, and so on.
	CoreCycles int
	// HalfMisses counts how many times the request missed its window.
	HalfMisses int
	// WriteRetries counts how many extra write attempts this request
	// consumed in the write-verify-retry loop (STT-RAM write failures);
	// the caller charges one array-write energy per retry.
	WriteRetries int
	// WriteAborted is true when the write exhausted its retry budget
	// and was abandoned (the request still completes so no request is
	// ever lost).
	WriteAborted bool
}

// Stats aggregates controller-level distributions and counters.
type Stats struct {
	// Requests counts everything submitted.
	Requests stats.Counter
	// Reads and Writes split Requests by port.
	Reads, Writes stats.Counter
	// HalfMisses counts half-miss events (a request may contribute
	// several).
	HalfMisses stats.Counter
	// RequestsWithHalfMiss counts read requests that suffered at least
	// one half-miss.
	RequestsWithHalfMiss stats.Counter
	// WriteRetries counts re-arbitrated write attempts after verify
	// failures; WriteAborts counts writes that exhausted the retry
	// budget.
	WriteRetries, WriteAborts stats.Counter
	// ArrivalsPerCycle is Figure 10: how many requests arrive at the
	// controller in each cache cycle (0,1,2,3,4+).
	ArrivalsPerCycle *stats.Histogram
	// ReadCoreCycles is Figure 11: core cycles to service each read
	// (1, 2, more).
	ReadCoreCycles *stats.Histogram
}

type slot struct {
	req        Request
	remaining  int // one-bits left in the priority shift register
	coreCycles int
	halfMisses int
	retries    int // verify-failed write attempts so far
	active     bool
}

// Controller is the shared-cache arbitration engine for one cache (one
// instance each for the shared L1I and L1D).
type Controller struct {
	nCores   int
	policy   SelectPolicy
	tieBreak TieBreak
	rng      *rng.Rand
	cycle    uint64

	readSlots []slot // one per core: cores block on reads
	// writeQueue holds stores and fills; per-core store-buffer depth
	// bounds how many stores one core may have outstanding.
	writeQueue  []slot
	storeDepth  int
	storeCount  []int
	pendingRing [config.RequestTransitCacheCycles + 1][]slot

	activeReads int // live read slots, to skip idle-cycle scans
	// activeMask mirrors the active bits of readSlots (New caps a
	// cluster at 64 cores, so it fits in one word), so the arbitration
	// and shift loops walk only live slots instead of scanning every
	// core's register.
	activeMask uint64
	pendingN   int    // requests in transit
	readBusy   []bool // per-core read outstanding (slot or in transit)
	done       []Serviced
	faults     *faults.Injector

	Stats Stats
}

// Option configures a Controller.
type Option func(*Controller)

// WithPolicy selects the arbitration policy.
func WithPolicy(p SelectPolicy) Option { return func(c *Controller) { c.policy = p } }

// WithTieBreak selects the tie-break rule.
func WithTieBreak(t TieBreak) Option { return func(c *Controller) { c.tieBreak = t } }

// WithStoreBufferDepth bounds per-core outstanding stores.
func WithStoreBufferDepth(d int) Option { return func(c *Controller) { c.storeDepth = d } }

// WithSeed seeds the tie-break RNG.
func WithSeed(seed int64) Option {
	return func(c *Controller) { c.rng = rng.New(seed) }
}

// WithFaults attaches a fault injector: each serviced write draws a
// verify outcome and failed writes re-arbitrate (write-verify-retry).
// A nil injector is valid and injects nothing.
func WithFaults(in *faults.Injector) Option {
	return func(c *Controller) { c.faults = in }
}

// New builds a controller for a cluster of nCores cores, 1 to 64: the
// live read slots are tracked as bits of one word.
func New(nCores int, opts ...Option) *Controller {
	if nCores <= 0 || nCores > 64 {
		panic(fmt.Sprintf("sharedcache: invalid core count %d", nCores))
	}
	c := &Controller{
		nCores:     nCores,
		rng:        rng.New(1),
		readSlots:  make([]slot, nCores),
		storeDepth: 4,
		storeCount: make([]int, nCores),
		readBusy:   make([]bool, nCores),
	}
	c.Stats.ArrivalsPerCycle = stats.NewHistogram(4) // 0..3 then 4+
	c.Stats.ReadCoreCycles = stats.NewHistogram(3)   // buckets 1 and 2, then 3+ ("more")
	for _, o := range opts {
		o(c)
	}
	return c
}

// Cycle returns the current cache cycle.
func (c *Controller) Cycle() uint64 { return c.cycle }

// CanSubmitRead reports whether the core's read slot is free (a core has
// exactly one outstanding read — loads block the pipeline).
func (c *Controller) CanSubmitRead(core int) bool {
	return c.validCore(core) && !c.readBusy[core]
}

// CanSubmitWrite reports whether the core's store buffer has room.
func (c *Controller) CanSubmitWrite(core int) bool {
	if core == FillCore {
		return true
	}
	return c.validCore(core) && c.storeCount[core] < c.storeDepth
}

func (c *Controller) validCore(core int) bool { return core >= 0 && core < c.nCores }

// Submit enqueues a request issued at the current cache cycle. The
// request spends the transit cycles in wires/level-shifters before
// becoming visible to the arbiter. It reports false (and drops the
// request) when the core's slot or store buffer cannot accept it;
// callers stall the core and retry.
func (c *Controller) Submit(req Request) bool {
	if req.Core != FillCore && !c.validCore(req.Core) {
		panic(fmt.Sprintf("sharedcache: core %d out of range", req.Core))
	}
	window := req.Multiple
	if req.Core == FillCore {
		window = fillWindow
	}
	if window < config.MinCoreMultiple || window > config.MaxCoreMultiple {
		panic(fmt.Sprintf("sharedcache: window %d outside [%d,%d]",
			window, config.MinCoreMultiple, config.MaxCoreMultiple))
	}
	if req.Write {
		if !c.CanSubmitWrite(req.Core) {
			return false
		}
		if req.Core != FillCore {
			c.storeCount[req.Core]++
		}
	} else {
		if req.Core == FillCore {
			panic("sharedcache: fills must be writes")
		}
		if !c.CanSubmitRead(req.Core) {
			return false
		}
		c.readBusy[req.Core] = true
	}
	c.Stats.Requests.Inc()
	if req.Write {
		c.Stats.Writes.Inc()
	} else {
		c.Stats.Reads.Inc()
	}
	// The priority register is preloaded with the window minus the
	// transit cycles already spent in wires and level shifters.
	s := slot{
		req:        req,
		remaining:  window - config.RequestTransitCacheCycles,
		coreCycles: 1,
		active:     true,
	}
	idx := (c.cycle + config.RequestTransitCacheCycles) % uint64(len(c.pendingRing))
	c.pendingRing[idx] = append(c.pendingRing[idx], s)
	c.pendingN++
	return true
}

// PriorityBits renders core i's read priority register as a bit string
// (LSB last), mirroring Figure 3(b). Inactive slots render as all
// zeroes. The register width is the widest possible window.
func (c *Controller) PriorityBits(core int) string {
	width := config.MaxCoreMultiple - config.RequestTransitCacheCycles + 1
	bits := make([]byte, width)
	for i := range bits {
		bits[i] = '0'
	}
	if c.validCore(core) && c.readSlots[core].active {
		r := c.readSlots[core].remaining
		for i := 0; i < r && i < width; i++ {
			bits[width-1-i] = '1'
		}
	}
	return string(bits)
}

// Idle reports whether the controller holds no request state at all: no
// active read registers, an empty write queue, and nothing in
// wire/level-shifter transit. An idle controller's Tick does nothing but
// advance the cycle and record a zero-arrival observation, which is what
// makes the cluster's idle fast-forward possible.
func (c *Controller) Idle() bool {
	return c.activeReads == 0 && len(c.writeQueue) == 0 && c.pendingN == 0
}

// ErrNotIdle is returned by TrySkipIdle when the controller still holds
// request state (active reads, queued writes, or in-transit requests)
// and therefore cannot be fast-forwarded.
var ErrNotIdle = errors.New("sharedcache: controller not idle")

// TrySkipIdle replays k idle Tick calls at once: the cycle counter
// advances by k and the Figure 10 arrival histogram records k empty
// cycles — bit-identical to ticking k times. A non-idle controller is
// left untouched and ErrNotIdle is returned, so a mis-sized
// fast-forward can degrade to slow-path ticking instead of crashing.
func (c *Controller) TrySkipIdle(k uint64) error {
	if !c.Idle() {
		return ErrNotIdle
	}
	c.cycle += k
	c.Stats.ArrivalsPerCycle.ObserveN(0, k)
	return nil
}

// SkipIdle is TrySkipIdle for callers that have already established
// idleness via Idle; skipping a non-idle controller is a programming
// error and panics.
func (c *Controller) SkipIdle(k uint64) {
	if err := c.TrySkipIdle(k); err != nil {
		panic("sharedcache: SkipIdle on a non-idle controller")
	}
}

// Tick advances one cache cycle: one read and one write are serviced,
// unserviced registers shift right, and the requests that finished their
// wire/level-shifter transit become visible for the next cycle. It
// returns the requests completed this cycle; the returned slice is
// reused by the next Tick call.
func (c *Controller) Tick() []Serviced {
	// Idle fast path: nothing active, queued or in transit.
	if c.Idle() {
		c.cycle++
		c.Stats.ArrivalsPerCycle.Observe(0)
		return nil
	}
	done := c.done[:0]

	// Read port: service the soonest-deadline active read.
	if pick := c.pickRead(); pick >= 0 {
		s := &c.readSlots[pick]
		done = append(done, Serviced{
			Req: s.req, Cycle: c.cycle,
			CoreCycles: s.coreCycles, HalfMisses: s.halfMisses,
		})
		c.Stats.ReadCoreCycles.Observe(s.coreCycles)
		if s.halfMisses > 0 {
			c.Stats.RequestsWithHalfMiss.Inc()
		}
		s.active = false
		c.activeReads--
		c.activeMask &^= 1 << uint(pick)
		c.readBusy[s.req.Core] = false
	}

	// Write port: service one store or fill. The array write is
	// verified (STT-RAM writes fail stochastically under injected
	// faults); a failed write keeps its queue slot — and its
	// store-buffer slot, preserving back-pressure — and re-arbitrates
	// with top priority, exactly like a half-missed read. After the
	// retry budget the write is abandoned but still completes, so no
	// request is ever lost.
	if pick := c.pickWrite(); pick >= 0 {
		s := &c.writeQueue[pick]
		failed := c.faults.STTWriteFails()
		if failed && s.retries < c.faults.MaxWriteRetries() {
			s.retries++
			s.remaining = 1
			c.faults.RecordWriteRetry()
			c.Stats.WriteRetries.Inc()
		} else {
			aborted := failed
			if aborted {
				c.faults.RecordWriteAbort()
				c.Stats.WriteAborts.Inc()
			}
			done = append(done, Serviced{
				Req: s.req, Cycle: c.cycle,
				CoreCycles: s.coreCycles, HalfMisses: s.halfMisses,
				WriteRetries: s.retries, WriteAborted: aborted,
			})
			if s.req.Core != FillCore {
				c.storeCount[s.req.Core]--
			}
			c.writeQueue = append(c.writeQueue[:pick], c.writeQueue[pick+1:]...)
		}
	}

	// Shift the registers of everything still waiting; expired reads
	// take a half-miss and retry with top priority.
	if c.activeReads > 0 {
		c.shiftReadRegisters()
	}
	for i := range c.writeQueue {
		if c.writeQueue[i].remaining > 1 {
			c.writeQueue[i].remaining--
		}
	}

	c.cycle++

	// Arrivals scheduled for the new cycle become active now, so their
	// registers are loaded (and inspectable) before that cycle's
	// arbitration runs.
	idx := c.cycle % uint64(len(c.pendingRing))
	arrivals := c.pendingRing[idx]
	c.Stats.ArrivalsPerCycle.Observe(len(arrivals))
	for _, s := range arrivals {
		if s.req.Write {
			c.writeQueue = append(c.writeQueue, s)
		} else {
			c.readSlots[s.req.Core] = s
			c.activeReads++
			c.activeMask |= 1 << uint(s.req.Core)
		}
	}
	c.pendingN -= len(arrivals)
	c.pendingRing[idx] = arrivals[:0]
	c.done = done
	return done
}

// shiftReadRegisters right-shifts every waiting read's priority register
// and converts expiries into half-misses.
func (c *Controller) shiftReadRegisters() {
	for m := c.activeMask; m != 0; m &= m - 1 {
		s := &c.readSlots[bits.TrailingZeros64(m)]
		s.remaining--
		if s.remaining <= 0 {
			s.halfMisses++
			s.coreCycles++
			s.remaining = 1
			c.Stats.HalfMisses.Inc()
		}
	}
}

// pickRead returns the index of the read slot to service, or -1. It
// visits active slots in ascending core order, so the reservoir
// tie-break consumes its RNG draws in a fixed order.
func (c *Controller) pickRead() int {
	if c.activeReads == 0 {
		return -1
	}
	best := -1
	ties := 0
	for m := c.activeMask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		s := &c.readSlots[i]
		switch {
		case best < 0 || c.less(s, &c.readSlots[best]):
			best, ties = i, 1
		case !c.less(&c.readSlots[best], s):
			// Equal urgency: reservoir-sample among ties.
			ties++
			if c.tieBreak == RandomTie && c.rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// pickWrite returns the index in writeQueue to service, or -1.
func (c *Controller) pickWrite() int {
	if len(c.writeQueue) == 0 {
		return -1
	}
	if c.policy == FIFO {
		return 0
	}
	best := 0
	for i := 1; i < len(c.writeQueue); i++ {
		if c.writeQueue[i].remaining < c.writeQueue[best].remaining {
			best = i
		}
	}
	return best
}

// less orders read slots by urgency under the configured policy.
func (c *Controller) less(a, b *slot) bool {
	if c.policy == FIFO {
		// FIFO ignores deadlines: order by how long the request has
		// been active, approximated by consumed window.
		aw := a.req.Multiple - config.RequestTransitCacheCycles - a.remaining
		bw := b.req.Multiple - config.RequestTransitCacheCycles - b.remaining
		return aw > bw
	}
	return a.remaining < b.remaining
}

// PendingReads returns the number of active read requests (for tests).
func (c *Controller) PendingReads() int {
	n := 0
	for i := range c.readSlots {
		if c.readSlots[i].active {
			n++
		}
	}
	return n
}

// PendingWrites returns the write-queue depth (for tests).
func (c *Controller) PendingWrites() int { return len(c.writeQueue) }

// HoldStore re-occupies one of the core's store-buffer slots; the
// cluster calls it when a serviced store misses the L1 and its
// write-allocate is still outstanding, so store misses are throttled by
// the store-buffer depth (MSHR-style back-pressure).
func (c *Controller) HoldStore(core int) {
	if core == FillCore {
		return
	}
	if !c.validCore(core) {
		panic(fmt.Sprintf("sharedcache: HoldStore core %d out of range", core))
	}
	c.storeCount[core]++
}

// ReleaseStore frees a slot held by HoldStore.
func (c *Controller) ReleaseStore(core int) {
	if core == FillCore {
		return
	}
	if !c.validCore(core) || c.storeCount[core] <= 0 {
		panic(fmt.Sprintf("sharedcache: ReleaseStore underflow on core %d", core))
	}
	c.storeCount[core]--
}

// HalfMissRate returns the fraction of read requests that suffered at
// least one half-miss — the paper reports ~4%.
func (c *Controller) HalfMissRate() float64 {
	return stats.Ratio(c.Stats.RequestsWithHalfMiss.Value(), c.Stats.Reads.Value())
}

// SlotState mirrors one request slot for checkpointing.
type SlotState struct {
	Req        Request
	Remaining  int
	CoreCycles int
	HalfMisses int
	Retries    int
	Active     bool
}

func exportSlot(s slot) SlotState {
	return SlotState{s.req, s.remaining, s.coreCycles, s.halfMisses, s.retries, s.active}
}

func importSlot(s SlotState) slot {
	return slot{s.Req, s.Remaining, s.CoreCycles, s.HalfMisses, s.Retries, s.Active}
}

// ControllerState is the controller's full mutable state, for
// checkpointing. The pending ring is captured by absolute index — the
// ring is addressed by cycle modulo its length, so restoring the cycle
// counter alongside the raw ring contents keeps the addressing aligned.
type ControllerState struct {
	Cycle       uint64
	ReadSlots   []SlotState
	WriteQueue  []SlotState
	StoreCount  []int
	PendingRing [][]SlotState
	ActiveReads int
	ActiveMask  uint64
	PendingN    int
	ReadBusy    []bool
	RNGSeed     int64
	RNGDraws    uint64
	Stats       Stats
}

// State captures the controller's mutable state.
func (c *Controller) State() ControllerState {
	st := ControllerState{
		Cycle:       c.cycle,
		ReadSlots:   make([]SlotState, len(c.readSlots)),
		StoreCount:  append([]int(nil), c.storeCount...),
		PendingRing: make([][]SlotState, len(c.pendingRing)),
		ActiveReads: c.activeReads,
		ActiveMask:  c.activeMask,
		PendingN:    c.pendingN,
		ReadBusy:    append([]bool(nil), c.readBusy...),
		Stats:       c.Stats,
	}
	st.RNGSeed, st.RNGDraws = c.rng.State()
	for i, s := range c.readSlots {
		st.ReadSlots[i] = exportSlot(s)
	}
	for _, s := range c.writeQueue {
		st.WriteQueue = append(st.WriteQueue, exportSlot(s))
	}
	for i, ring := range c.pendingRing {
		for _, s := range ring {
			st.PendingRing[i] = append(st.PendingRing[i], exportSlot(s))
		}
	}
	return st
}

// Restore repositions a freshly built controller (same core count and
// options) to a captured state. The Stats histograms are copied in
// place so pointers registered with telemetry stay valid. A state that
// breaks an invariant Tick, Submit or the store buffer relies on is
// refused with an error before anything is written, so the controller
// is left untouched.
func (c *Controller) Restore(st ControllerState) error {
	if err := c.checkState(st); err != nil {
		return err
	}
	c.cycle = st.Cycle
	for i, s := range st.ReadSlots {
		c.readSlots[i] = importSlot(s)
	}
	c.writeQueue = c.writeQueue[:0]
	for _, s := range st.WriteQueue {
		c.writeQueue = append(c.writeQueue, importSlot(s))
	}
	copy(c.storeCount, st.StoreCount)
	for i := range c.pendingRing {
		c.pendingRing[i] = c.pendingRing[i][:0]
		for _, s := range st.PendingRing[i] {
			c.pendingRing[i] = append(c.pendingRing[i], importSlot(s))
		}
	}
	c.activeReads = st.ActiveReads
	c.activeMask = st.ActiveMask
	c.pendingN = st.PendingN
	copy(c.readBusy, st.ReadBusy)
	c.rng.Restore(st.RNGSeed, st.RNGDraws)
	c.Stats.Requests = st.Stats.Requests
	c.Stats.Reads = st.Stats.Reads
	c.Stats.Writes = st.Stats.Writes
	c.Stats.HalfMisses = st.Stats.HalfMisses
	c.Stats.RequestsWithHalfMiss = st.Stats.RequestsWithHalfMiss
	c.Stats.WriteRetries = st.Stats.WriteRetries
	c.Stats.WriteAborts = st.Stats.WriteAborts
	*c.Stats.ArrivalsPerCycle = *st.Stats.ArrivalsPerCycle
	*c.Stats.ReadCoreCycles = *st.Stats.ReadCoreCycles
	return nil
}

// checkState validates a captured state against this controller's
// shape and the invariants the live controller keeps.
func (c *Controller) checkState(st ControllerState) error {
	if len(st.ReadSlots) != c.nCores {
		return fmt.Errorf("sharedcache: restore has %d read slots, controller has %d", len(st.ReadSlots), c.nCores)
	}
	if len(st.PendingRing) != len(c.pendingRing) {
		return fmt.Errorf("sharedcache: restore has ring length %d, controller has %d", len(st.PendingRing), len(c.pendingRing))
	}
	if len(st.StoreCount) != c.nCores || len(st.ReadBusy) != c.nCores {
		return fmt.Errorf("sharedcache: restore has %d store counts and %d read-busy flags, controller has %d cores",
			len(st.StoreCount), len(st.ReadBusy), c.nCores)
	}
	if st.Stats.ArrivalsPerCycle == nil || st.Stats.ReadCoreCycles == nil {
		return errors.New("sharedcache: restore is missing a histogram")
	}
	for core, n := range st.StoreCount {
		if n < 0 || n > c.storeDepth {
			return fmt.Errorf("sharedcache: restore has %d stores buffered on core %d, depth %d", n, core, c.storeDepth)
		}
	}
	if c.nCores < 64 && st.ActiveMask>>uint(c.nCores) != 0 {
		return fmt.Errorf("sharedcache: restore's active mask %#x has bits at or above core %d", st.ActiveMask, c.nCores)
	}
	active := 0
	for i, s := range st.ReadSlots {
		if i < 64 && (st.ActiveMask>>uint(i)&1 == 1) != s.Active {
			return fmt.Errorf("sharedcache: restore's active mask %#x disagrees with read slot %d", st.ActiveMask, i)
		}
		if !s.Active {
			continue
		}
		active++
		if s.Req.Core != i || s.Req.Write {
			return fmt.Errorf("sharedcache: restore's read slot %d holds a request from core %d (write %v)", i, s.Req.Core, s.Req.Write)
		}
		if err := checkRegister(s); err != nil {
			return err
		}
	}
	if st.ActiveReads != active {
		return fmt.Errorf("sharedcache: restore counts %d active reads, its slots hold %d", st.ActiveReads, active)
	}
	for _, s := range st.WriteQueue {
		if !s.Req.Write {
			return fmt.Errorf("sharedcache: restore's write queue holds a read from core %d", s.Req.Core)
		}
		if err := c.checkQueued(s); err != nil {
			return err
		}
	}
	pending := 0
	for _, ring := range st.PendingRing {
		pending += len(ring)
		for _, s := range ring {
			if err := c.checkQueued(s); err != nil {
				return err
			}
		}
	}
	if st.PendingN != pending {
		return fmt.Errorf("sharedcache: restore counts %d requests in transit, its ring holds %d", st.PendingN, pending)
	}
	return nil
}

// checkQueued validates a request in transit or in the write queue:
// from a core of this cluster or a fill, fills being writes, with a
// loaded priority register.
func (c *Controller) checkQueued(s SlotState) error {
	if s.Req.Core == FillCore && !s.Req.Write {
		return errors.New("sharedcache: restore holds a fill that is not a write")
	}
	if s.Req.Core != FillCore && !c.validCore(s.Req.Core) {
		return fmt.Errorf("sharedcache: restore holds a request from core %d of %d", s.Req.Core, c.nCores)
	}
	if !s.Active {
		return fmt.Errorf("sharedcache: restore holds an inactive queued request from core %d", s.Req.Core)
	}
	return checkRegister(s)
}

// checkRegister bounds an occupied slot's priority register by what
// Submit can load: at least one bit, at most the widest window less the
// transit cycles.
func checkRegister(s SlotState) error {
	if s.Remaining < 1 || s.Remaining > config.MaxCoreMultiple-config.RequestTransitCacheCycles {
		return fmt.Errorf("sharedcache: restore has priority register %d on a request from core %d, want 1..%d",
			s.Remaining, s.Req.Core, config.MaxCoreMultiple-config.RequestTransitCacheCycles)
	}
	return nil
}
