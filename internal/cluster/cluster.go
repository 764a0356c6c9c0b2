// Package cluster assembles one cluster of the Respin CMP: a set of
// physical near-threshold cores (with variation-assigned clock
// multiples), the virtual cores (threads) they host, and either
//
//   - the proposed cluster-shared L1I/L1D behind the time-multiplexing
//     controller of package sharedcache (no intra-cluster coherence), or
//   - private per-core L1s kept coherent by the MESI directory of
//     package coherence (the baseline designs),
//
// plus the cluster-shared L2. L2 misses are buffered as LowerRequest
// records rather than answered synchronously: the chip-level scheduler
// in package sim drains them against the shared L3/DRAM in global
// timestamp order at epoch boundaries and answers each one through
// FinishLower, which lands the completion events that were reserved at
// issue time.
//
// The cluster also implements the mechanics of dynamic core
// consolidation (Section III): virtual-to-physical remapping, hardware
// context switching between co-resident virtual cores, power gating, and
// every migration overhead the paper enumerates (pipeline drain,
// register transfer, cold-pipeline warmup, power-up voltage
// stabilisation, and — for private caches — the loss of cache state).
package cluster

import (
	"fmt"

	"respin/internal/rng"
	"respin/internal/stats"

	"respin/internal/coherence"
	"respin/internal/config"
	"respin/internal/cpu"
	"respin/internal/endurance"
	"respin/internal/faults"
	"respin/internal/mem"
	"respin/internal/power"
	"respin/internal/sharedcache"
	"respin/internal/telemetry"
	"respin/internal/trace"
	"respin/internal/variation"
)

// LowerRequest describes one buffered access to the chip-level memory
// system below the cluster's L2. The sim-side scheduler merges the
// per-cluster request streams in (Cycle, cluster-index, issue-order)
// order — exactly the order a serial chip loop would have presented
// them to the L3 port — and answers each one via FinishLower.
type LowerRequest struct {
	// Cycle is the cluster cycle on which the L2 miss was issued (the
	// drain's primary sort key).
	Cycle uint64
	// Start is the earliest cache cycle the L3 port may begin serving
	// the request (issue cycle plus L2 occupancy and latency).
	Start uint64
	// Addr is the byte address.
	Addr uint64
	// Write marks an L2 victim writeback (fire-and-forget: no
	// completion events depend on its finish time).
	Write bool
}

// deferredEvent is a completion event whose heap sequence number was
// reserved at issue time but whose delivery cycle awaits the L3/DRAM
// round trip resolved at the next drain.
type deferredEvent struct {
	kind  eventKind
	vcore int
	fill  fillInfo
	delta uint64 // extra cycles past the L3 ready time (coherence penalty)
	seq   uint64
}

// lowerReq pairs a LowerRequest with the events its answer releases.
type lowerReq struct {
	req LowerRequest
	ev  [2]deferredEvent
	nev int
}

// Timing constants (cache cycles) for intra-cluster coherence traffic.
const (
	// c2cTransferCycles is a cache-to-cache forward over the cluster
	// bus (8 ns round trip).
	c2cTransferCycles = 20
	// invalidationCycles is the additional latency per remote
	// invalidation on the requester's critical path.
	invalidationCycles = 4
	// l2OccupancyCycles is the L2 port busy time per access.
	l2OccupancyCycles = 2
	// spinIntervalCoreCycles is how often a barrier-parked thread
	// re-polls the barrier line (spin loops with a pause/backoff, as
	// NT-friendly runtimes do).
	spinIntervalCoreCycles = 12
	// hwSwitchPenaltyCoreCycles is the pipeline refill cost of a
	// hardware context switch between co-resident virtual cores. The
	// virtual-core contexts are register-file resident (Section III.C's
	// fine-grain hardware switching), so this is small.
	hwSwitchPenaltyCoreCycles = 2
	// osSwitchPenaltyPS is the software context-switch cost in the
	// OS-driven consolidation comparator (~2 us).
	osSwitchPenaltyPS = 2_000_000
	// storeBufferDepth bounds outstanding store write-allocates per
	// physical core in the private-L1 designs (the shared design's
	// controller enforces the same depth).
	storeBufferDepth = 4
)

// tag kinds encode what a serviced shared-cache request was.
const (
	tagLoad uint64 = iota
	tagStore
	tagIFetch
	tagSpin
	tagFill
	tagKinds
)

type fillInfo struct {
	addr   uint64
	dirty  bool
	icache bool
}

// event kinds for the deferred-completion heap.
type eventKind int

const (
	evCompleteLoad eventKind = iota
	evCompleteFetch
	evSubmitFill
	evReleaseBarrier
	evResumeBarrier
	evReleaseStore
)

type event struct {
	cycle uint64
	seq   uint64
	kind  eventKind
	vcore int
	fill  fillInfo
	// chip marks events injected by the chip-level coordinator (barrier
	// releases). They carry sequence numbers from their own counter and
	// sort before same-cycle cluster-local events, so their delivery
	// order cannot depend on how many local events happened to be
	// scheduled before the coordinator ran.
	chip bool
}

// edgeGroup lists the pcores sharing one clock multiple. next caches
// the next cache cycle divisible by mult so the per-tick edge test is a
// compare instead of a hardware divide; fast-forward jumps resync it.
type edgeGroup struct {
	mult uint64
	next uint64
	ids  []int
}

type pcore struct {
	spec         variation.CoreSpec
	active       bool
	dead         bool // hard core-kill fault: never powered again
	residents    []int
	rrIndex      int
	quantumInstr uint64
	quantumCyc   uint64
	stallUntil   uint64 // cache cycle
	switchLeft   int    // core cycles of context-switch penalty
}

type vcoreState struct {
	core        *cpu.Core
	pcore       int
	finished    bool
	atBarrier   bool
	spinLeft    int
	loadPending bool
	loadIssued  uint64
	fetchAddr   uint64
	pendingCold bool
}

// Stats aggregates cluster-level results.
type Stats struct {
	// LoadLatency distributes load completion latency in cache cycles
	// (buckets up to 299, then overflow).
	LoadLatency    *stats.Histogram `json:"load_latency,omitempty"`
	Instructions   uint64           `json:"instructions"`
	CoherenceReads uint64           `json:"coherence_reads"`
	SpinAccesses   uint64           `json:"spin_accesses"`
	Migrations     uint64           `json:"migrations"`
	HWSwitches     uint64           `json:"hw_switches"`
	PowerUps       uint64           `json:"power_ups"`
	L2Accesses     uint64           `json:"l2_accesses"`
	L3Accesses     uint64           `json:"l3_accesses"`
}

// Cluster is one cluster instance.
type Cluster struct {
	cfg  config.Config
	chip *power.Chip
	id   int
	now  uint64

	pcores []pcore
	vcores []vcoreState
	order  []int // pcore ids sorted by efficiency (fastest first)
	// edges groups pcore ids by clock multiple so only cores whose
	// clock edge falls on the current cache cycle are visited; sorted
	// by multiple for deterministic stepping order.
	edges []edgeGroup

	// Shared-L1 machinery.
	ctrlI, ctrlD *sharedcache.Controller
	sharedL1I    *mem.Cache
	sharedL1D    *mem.Cache
	fills        fillTable
	fillSeq      uint64

	// Private-L1 machinery.
	privI []*mem.Cache
	dir   *coherence.Directory
	// privStoreMiss throttles outstanding private store write-allocates
	// per physical core (store-buffer depth).
	privStoreMiss []int

	l2         *mem.Cache
	l2NextFree uint64

	// pendingLower buffers this cluster's L2-miss traffic until the
	// chip-level scheduler drains it against the shared L3/DRAM.
	pendingLower []lowerReq
	// pendingEvents buffers telemetry emissions made while the cluster
	// runs on a worker goroutine; the scheduler flushes them in global
	// order at drain time.
	pendingEvents []PendingEvent

	rng *rng.Rand
	// faults is this cluster's private fault-injector stream (a child of
	// the chip-wide injector, nil when nothing is injected); wrFaults
	// aliases it only for STT-RAM configs, gating the write-verify-retry
	// draws to the technology that needs them.
	faults   *faults.Injector
	wrFaults *faults.Injector
	// endurCaches lists this cluster's STT arrays with an endurance
	// model attached (empty when the model is off): each Tick keeps
	// their retention clocks current and runs due scrub passes; each
	// entry carries the per-write energy its scrub refreshes cost.
	endurCaches []enduranceCache
	deadCnt     int
	// tel is the cluster's telemetry collector (nil when disabled);
	// event emissions are guarded on it so the fault-free, untelemetered
	// hot path pays one pointer test. telEvents additionally records
	// whether an event stream is attached: emitRetry builds attribute
	// maps, so its call sites gate on this flag and a metrics-only run
	// allocates nothing per retry.
	tel       *telemetry.Collector
	telEvents bool

	// Per-array energy/latency scalars copied out of the chip power
	// model at construction (the model is immutable once built). The
	// memory path charges one of these per access; direct fields keep
	// the hot loops from re-chasing chip->Energies/Latencies each time.
	eL1IRead, eL1IWrite   float64
	eL1DRead, eL1DWrite   float64
	eL2Read, eL2Write     float64
	shifterPJ             float64
	latL1ReadExtra        uint64
	latL2Read, latL2Write uint64

	events   eventQueue
	eventSeq uint64
	chipSeq  uint64 // separate sequence space for chip-injected events

	// Post-step completions within the same cycle (private L1 hits).
	sameCycle []int

	Meter         power.Meter
	lastLeakTick  uint64
	activeCount   int
	instrEpoch    uint64
	edgesEpoch    uint64 // active-pcore clock edges this epoch
	busyEpoch     uint64 // edges that retired at least one instruction
	barrierCount  int    // vcores currently parked at a barrier
	finishedCount int
	quota         uint64 // per-vcore instruction quota
	assignPtr     int    // round-robin pointer for orphan reassignment

	Stats Stats
}

// Params configures cluster construction.
type Params struct {
	Config    config.Config
	Chip      *power.Chip
	ClusterID int
	PCores    []variation.CoreSpec
	Bench     trace.Profile
	Seed      int64
	// QuotaInstr is the per-thread instruction budget; the cluster is
	// done when every virtual core has retired it.
	QuotaInstr uint64
	// Faults is this cluster's fault-injector stream (conventionally a
	// Derive child of the chip-wide injector, so each cluster draws
	// independently of the others' stepping); nil injects nothing.
	Faults *faults.Injector
	// Telemetry, when enabled, receives this cluster's metric
	// registrations and events (conventionally the run collector's
	// "cluster.<id>" child). Nil disables telemetry at zero cost.
	Telemetry *telemetry.Collector
	// Endurance is the chip-wide wear/retention tracker; nil disables
	// the model. STT-RAM hierarchies only — SRAM arrays neither wear
	// out on writes nor lose retention.
	Endurance *endurance.Tracker
}

// enduranceCache pairs an endurance-attached array with the dynamic
// energy of one of its data writes (what a scrub refresh costs).
type enduranceCache struct {
	c       *mem.Cache
	writePJ float64
}

// New builds a cluster.
func New(p Params) *Cluster {
	n := p.Config.ClusterSize
	if len(p.PCores) != n {
		panic(fmt.Sprintf("cluster: %d core specs for cluster size %d", len(p.PCores), n))
	}
	if p.QuotaInstr == 0 {
		panic("cluster: zero instruction quota")
	}
	cl := &Cluster{
		cfg:    p.Config,
		chip:   p.Chip,
		id:     p.ClusterID,
		rng:    rng.New(p.Seed*31 + int64(p.ClusterID)),
		quota:  p.QuotaInstr,
		pcores: make([]pcore, n),
		vcores: make([]vcoreState, n),
		faults: p.Faults,
	}
	if p.Config.Tech == config.STTRAM {
		cl.wrFaults = p.Faults
	}
	{
		chip := p.Chip
		cl.eL1IRead = chip.EnergyPJ(power.ArrayL1I, power.ReadAccess)
		cl.eL1IWrite = chip.EnergyPJ(power.ArrayL1I, power.WriteAccess)
		cl.eL1DRead = chip.EnergyPJ(power.ArrayL1D, power.ReadAccess)
		cl.eL1DWrite = chip.EnergyPJ(power.ArrayL1D, power.WriteAccess)
		cl.eL2Read = chip.EnergyPJ(power.ArrayL2, power.ReadAccess)
		cl.eL2Write = chip.EnergyPJ(power.ArrayL2, power.WriteAccess)
		cl.shifterPJ = chip.ShifterPJ
		cl.latL1ReadExtra = uint64(chip.LatencyCycles(power.ArrayL1D, power.ReadAccess) - 1)
		cl.latL2Read = uint64(chip.LatencyCycles(power.ArrayL2, power.ReadAccess))
		cl.latL2Write = uint64(chip.LatencyCycles(power.ArrayL2, power.WriteAccess))
	}
	cl.Stats.LoadLatency = stats.NewHistogram(300)
	for i := range cl.pcores {
		spec := p.PCores[i]
		if p.Config.NominalCores {
			spec = variation.CoreSpec{Vth: config.Vth, FmaxGHz: 2.5, Multiple: 1, PeriodPS: config.CachePeriodPS}
		}
		cl.pcores[i] = pcore{spec: spec, active: true, residents: []int{i}}
		cl.resetQuantum(i)
	}
	cl.activeCount = n
	cl.order = efficiencyOrder(cl.pcores)
	for m := uint64(1); m <= config.MaxCoreMultiple; m++ {
		var ids []int
		for i := range cl.pcores {
			if uint64(cl.pcores[i].spec.Multiple) == m {
				ids = append(ids, i)
			}
		}
		if len(ids) > 0 {
			cl.edges = append(cl.edges, edgeGroup{mult: m, ids: ids})
		}
	}

	for i := range cl.vcores {
		gen := trace.NewGen(p.Bench, p.Seed, p.ClusterID*n+i, p.ClusterID)
		cl.vcores[i] = vcoreState{pcore: i, spinLeft: spinIntervalCoreCycles}
		cl.vcores[i].core = cpu.New(i, gen, (*memPort)(cl))
	}

	h := p.Config.Hierarchy
	cl.l2 = mem.NewCache(h.L2)
	if p.Config.L1 == config.SharedL1 {
		cl.sharedL1I = mem.NewCache(h.L1I)
		cl.sharedL1D = mem.NewCache(h.L1D)
		cl.ctrlI = sharedcache.New(n,
			sharedcache.WithSeed(p.Seed*7+int64(p.ClusterID)),
			sharedcache.WithFaults(cl.wrFaults))
		cl.ctrlD = sharedcache.New(n,
			sharedcache.WithSeed(p.Seed*11+int64(p.ClusterID)),
			sharedcache.WithFaults(cl.wrFaults))
	} else {
		cl.privI = make([]*mem.Cache, n)
		for i := range cl.privI {
			cl.privI[i] = mem.NewCache(h.L1I)
		}
		cl.dir = coherence.New(n, h.L1D)
		cl.privStoreMiss = make([]int, n)
	}
	// Low-voltage SRAM arrays upset on reads; STT-RAM arrays do not
	// (package reliability's technology argument), so the read-flip hook
	// attaches only to SRAM-tech hierarchies.
	if p.Config.Tech == config.SRAM && p.Faults != nil {
		cl.l2.AttachFaults(p.Faults)
		if p.Config.L1 == config.SharedL1 {
			cl.sharedL1I.AttachFaults(p.Faults)
			cl.sharedL1D.AttachFaults(p.Faults)
		} else {
			for i := 0; i < n; i++ {
				cl.privI[i].AttachFaults(p.Faults)
				cl.dir.Cache(i).AttachFaults(p.Faults)
			}
		}
	}
	// The endurance/retention model covers STT arrays only: SRAM cells
	// neither wear out on writes nor expire on a retention timer.
	if p.Endurance != nil && p.Config.Tech == config.STTRAM {
		cl.attachEndurance(p.Endurance)
	}
	if p.Telemetry.Enabled() {
		cl.tel = p.Telemetry
		cl.telEvents = p.Telemetry.Emitting()
		cl.registerTelemetry()
	}
	return cl
}

// Endurance array salts: each array gets a chip-unique salt of
// clusterID*saltStride + offset, so budget streams never collide across
// arrays or clusters (chip-shared arrays use negative salts).
const (
	saltStride  = 256
	saltL2      = 0
	saltL1I     = 1
	saltL1D     = 2
	saltPrivI   = 8   // + core id (cluster size <= 64)
	saltPrivL1D = 128 // + core id
)

// attachEndurance registers per-array endurance state for every STT
// array the cluster owns. Arrays and their budgets are created here,
// eagerly and in a fixed order, so budgets are a pure function of
// (seed, array identity) regardless of how clusters later interleave.
func (cl *Cluster) attachEndurance(t *endurance.Tracker) {
	base := int64(cl.id) * saltStride
	e := &cl.chip.Energies
	attach := func(c *mem.Cache, salt int64, label string, writePJ float64) {
		p := c.Params()
		c.AttachEndurance(t.NewArray(label, base+salt, p.Sets(), p.Assoc))
		cl.endurCaches = append(cl.endurCaches, enduranceCache{c: c, writePJ: writePJ})
	}
	attach(cl.l2, saltL2, fmt.Sprintf("cluster%d.l2", cl.id), e.L2Write)
	if cl.cfg.L1 == config.SharedL1 {
		attach(cl.sharedL1I, saltL1I, fmt.Sprintf("cluster%d.l1i", cl.id), e.L1IWrite)
		attach(cl.sharedL1D, saltL1D, fmt.Sprintf("cluster%d.l1d", cl.id), e.L1DWrite)
	} else {
		for i := range cl.privI {
			attach(cl.privI[i], saltPrivI+int64(i), fmt.Sprintf("cluster%d.core%d.l1i", cl.id, i), e.L1IWrite)
			attach(cl.dir.Cache(i), saltPrivL1D+int64(i), fmt.Sprintf("cluster%d.core%d.l1d", cl.id, i), e.L1DWrite)
		}
	}
}

// enduranceTick keeps the retention clocks of the cluster's STT arrays
// current and runs any scrub pass that came due, charging refresh write
// energy. Called once per Tick, only when the model is attached.
func (cl *Cluster) enduranceTick() {
	for i := range cl.endurCaches {
		ec := &cl.endurCaches[i]
		ec.c.SetNow(cl.now)
		if ec.c.Endurance().ScrubDue(cl.now) {
			n := ec.c.Scrub(cl.now)
			if n > 0 {
				cl.Meter.AddPJ(power.CacheDynamic, float64(n)*ec.writePJ)
			}
		}
	}
}

// nextScrubDeadline returns the earliest pending scrub across the
// cluster's endurance-attached arrays (NeverWake when none).
func (cl *Cluster) nextScrubDeadline() uint64 {
	next := NeverWake
	for i := range cl.endurCaches {
		if s := cl.endurCaches[i].c.Endurance().NextScrub(); s < next {
			next = s
		}
	}
	return next
}

// efficiencyOrder sorts pcore ids fastest-first (lowest multiple), which
// is the paper's energy-efficiency order: at equal voltage, faster cores
// achieve lower energy per instruction because leakage is a fixed cost.
func efficiencyOrder(pcores []pcore) []int {
	order := make([]int, len(pcores))
	for i := range order {
		order[i] = i
	}
	// Insertion sort by (multiple, id): tiny n, deterministic.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j], order[j-1]
			if pcores[a].spec.Multiple < pcores[b].spec.Multiple {
				order[j], order[j-1] = b, a
			} else {
				break
			}
		}
	}
	return order
}

// resetQuantum reloads pcore i's context-switch quantum.
func (cl *Cluster) resetQuantum(i int) {
	p := &cl.pcores[i]
	if cl.cfg.Consolidation == config.OSConsolidation {
		p.quantumCyc = uint64(cl.cfg.ConsolidationParams.OSIntervalPS / p.spec.PeriodPS)
		p.quantumInstr = ^uint64(0)
	} else {
		p.quantumInstr = cl.cfg.ConsolidationParams.HWSwitchIntervalInstr
		p.quantumCyc = ^uint64(0)
	}
}

// Now returns the current cache cycle.
func (cl *Cluster) Now() uint64 { return cl.now }

// ID returns the cluster id.
func (cl *Cluster) ID() int { return cl.id }

// ActiveCores returns the number of powered physical cores.
func (cl *Cluster) ActiveCores() int { return cl.activeCount }

// Done reports whether every virtual core has retired its quota.
func (cl *Cluster) Done() bool { return cl.finishedCount == len(cl.vcores) }

// BarrierWaiters returns how many unfinished virtual cores are parked at
// the global barrier.
func (cl *Cluster) BarrierWaiters() int { return cl.barrierCount }

// Unfinished returns the count of virtual cores still executing.
func (cl *Cluster) Unfinished() int { return len(cl.vcores) - cl.finishedCount }

// EpochInstructions returns (and the caller may reset) instructions
// retired in the current consolidation epoch.
func (cl *Cluster) EpochInstructions() uint64 { return cl.instrEpoch }

// ResetEpoch clears the epoch instruction and utilisation counters.
func (cl *Cluster) ResetEpoch() {
	cl.instrEpoch = 0
	cl.edgesEpoch = 0
	cl.busyEpoch = 0
}

// EpochUtilization returns the fraction of active-core clock edges this
// epoch that retired at least one instruction — the virtual core
// monitor's busy signal.
func (cl *Cluster) EpochUtilization() float64 {
	if cl.edgesEpoch == 0 {
		return 0
	}
	return float64(cl.busyEpoch) / float64(cl.edgesEpoch)
}

// ControllerD exposes the L1D controller (Figures 10 and 11); nil for
// private-L1 configurations.
func (cl *Cluster) ControllerD() *sharedcache.Controller { return cl.ctrlD }

// ControllerI exposes the L1I controller; nil for private-L1
// configurations.
func (cl *Cluster) ControllerI() *sharedcache.Controller { return cl.ctrlI }

// OutstandingEvents returns the deferred-completion queue depth
// (deadlock diagnostics: outstanding misses, barrier releases, fills).
func (cl *Cluster) OutstandingEvents() int { return cl.events.len() }

// Directory exposes the MESI directory; nil for shared configurations.
func (cl *Cluster) Directory() *coherence.Directory { return cl.dir }

// L1D exposes the shared L1 data array; nil for private configurations.
func (cl *Cluster) L1D() *mem.Cache { return cl.sharedL1D }

// schedule pushes a deferred event.
func (cl *Cluster) schedule(cycle uint64, e event) {
	if cycle <= cl.now {
		cycle = cl.now + 1
	}
	e.cycle = cycle
	e.seq = cl.eventSeq
	cl.eventSeq++
	cl.events.push(e)
}

// pushLower buffers one L3-and-below access and reserves heap sequence
// numbers for the completion events its answer will release — in
// argument order, exactly where a synchronous lower level would have
// scheduled them — so the eventual delivery order is independent of
// when the chip-level drain runs.
func (cl *Cluster) pushLower(start, addr uint64, write bool, delta uint64, evs ...event) {
	r := lowerReq{req: LowerRequest{Cycle: cl.now, Start: start, Addr: addr, Write: write}}
	for _, e := range evs {
		r.ev[r.nev] = deferredEvent{kind: e.kind, vcore: e.vcore, fill: e.fill, delta: delta, seq: cl.eventSeq}
		cl.eventSeq++
		r.nev++
	}
	cl.pendingLower = append(cl.pendingLower, r)
}

// PendingLowerLen returns how many lower-level requests are buffered.
func (cl *Cluster) PendingLowerLen() int { return len(cl.pendingLower) }

// LowerRequestAt returns buffered request i in issue order.
func (cl *Cluster) LowerRequestAt(i int) LowerRequest { return cl.pendingLower[i].req }

// FinishLower answers buffered request i: the lower level's data is
// available at cache cycle ready. The completion events reserved at
// issue time land on the heap at ready (plus any per-event coherence
// delta). The conservative lookahead guarantees ready can never fall
// before the cluster's current cycle; a violation means the epoch was
// longer than the minimum L3 round trip, so fail loudly.
func (cl *Cluster) FinishLower(i int, ready uint64) {
	r := &cl.pendingLower[i]
	for k := 0; k < r.nev; k++ {
		d := r.ev[k]
		cycle := ready + d.delta
		if cycle < cl.now {
			panic(fmt.Sprintf("cluster %d: L3 completion at cycle %d behind cluster cycle %d (lookahead bound violated)",
				cl.id, cycle, cl.now))
		}
		cl.events.push(event{cycle: cycle, seq: d.seq, kind: d.kind, vcore: d.vcore, fill: d.fill})
	}
}

// ResetLower discards the drained request buffer, retaining capacity.
func (cl *Cluster) ResetLower() { cl.pendingLower = cl.pendingLower[:0] }

// PendingEvent is a telemetry emission buffered while the cluster ran
// on a worker goroutine; the chip-level scheduler flushes these in
// global (cycle, cluster) order so the JSONL stream is identical at any
// worker count.
type PendingEvent struct {
	Collector *telemetry.Collector
	Type      string
	Cycle     uint64
	Attrs     map[string]any
}

// PendingEvents returns the buffered telemetry emissions in issue order.
func (cl *Cluster) PendingEvents() []PendingEvent { return cl.pendingEvents }

// ResetPendingEvents discards the flushed buffer, retaining capacity.
func (cl *Cluster) ResetPendingEvents() { cl.pendingEvents = cl.pendingEvents[:0] }

// CanFinishWithin reports whether every unfinished virtual core is
// within budget instructions of its quota — the scheduler's endgame
// signal to shrink epochs so the completion cycle is detected exactly.
func (cl *Cluster) CanFinishWithin(budget uint64) bool {
	for i := range cl.vcores {
		vs := &cl.vcores[i]
		if vs.finished {
			continue
		}
		if r := vs.core.Retired(); r < cl.quota && cl.quota-r > budget {
			return false
		}
	}
	return true
}

// shiftEnergy charges one voltage-domain crossing.
func (cl *Cluster) shiftEnergy() {
	if cl.shifterPJ > 0 {
		cl.Meter.AddPJ(power.Shifter, cl.shifterPJ)
	}
}

// accrueLeakage integrates core leakage up to the current cycle. Cache
// leakage is integrated at chip level by package sim.
func (cl *Cluster) accrueLeakage() {
	dt := cl.now - cl.lastLeakTick
	if dt == 0 {
		return
	}
	ps := int64(dt) * config.CachePeriodPS
	active := float64(cl.activeCount) * cl.chip.CoreLeakW
	// Dead cores are fused off and leak nothing; gated cores retain
	// their residual leakage.
	gated := float64(len(cl.pcores)-cl.activeCount-cl.deadCnt) * cl.chip.CoreGatedLeakW
	cl.Meter.AddLeakage(power.CoreLeakage, active+gated, ps)
	cl.lastLeakTick = cl.now
}
