// Package sim is the chip-level simulator: it instantiates the 64-core
// CMP for one Table IV configuration (clusters, shared L3, DRAM),
// coordinates the application's global barriers, drives the per-cluster
// virtual core monitors (consolidation epochs), integrates chip-wide
// energy, and produces the Result structures the experiment drivers turn
// into the paper's tables and figures.
package sim

import (
	"context"
	"fmt"

	"respin/internal/checkpoint"
	"respin/internal/cluster"
	"respin/internal/config"
	"respin/internal/consolidation"
	"respin/internal/endurance"
	"respin/internal/faults"
	"respin/internal/mem"
	"respin/internal/power"
	"respin/internal/reliability"
	"respin/internal/stats"
	"respin/internal/telemetry"
	"respin/internal/trace"
	"respin/internal/variation"
)

// Chip-level timing constants (cache cycles).
const (
	l3OccupancyCycles = 1
	// barrierReleaseCycles is the cross-chip propagation of a barrier
	// release (an L3-level round trip).
	barrierReleaseCycles = 30
)

// Options tunes a simulation run.
type Options struct {
	// QuotaInstr is the per-thread instruction budget (workload
	// length). Zero selects DefaultQuota.
	QuotaInstr uint64
	// Seed drives workload and arbitration randomness.
	Seed int64
	// MaxCycles aborts a stuck run (safety net). Zero selects a bound
	// scaled to the quota.
	MaxCycles uint64
	// EpochTrace records the active-core count of every cluster at
	// each consolidation epoch (Figures 12-14).
	EpochTrace bool
	// Faults configures the fault injector; the zero value injects
	// nothing and reproduces fault-free runs bit-identically. A
	// negative SRAMBitFlipPerCell derives the rate from the cache rail
	// (reliability.CellFailProb at the configuration's CacheVdd).
	Faults faults.Params
	// Endurance configures the STT wear/retention model; the zero value
	// disables it and reproduces pre-endurance runs bit-identically.
	// Ignored (with zero cost) for SRAM-technology configurations. A
	// zero Endurance.Seed derives from Faults.Seed so one knob controls
	// all robustness randomness.
	Endurance endurance.Params
	// DisableFastForward forces the cycle-exact slow path: every cache
	// cycle is ticked even when no cluster has runnable work. Results
	// are bit-identical either way (the equivalence test enforces it)
	// unless the endurance model has retention: the L3's scrubs run at
	// epoch boundaries, and fast-forward moves those boundaries, so
	// such runs differ slightly (DESIGN §4e). The flag exists for the
	// equivalence test and for debugging.
	DisableFastForward bool
	// Telemetry, when enabled, receives metric registrations from every
	// subsystem under stable dotted names and streams structured events
	// (run lifecycle, consolidation epochs, core kills, write-verify
	// retries, fast-forward jumps). Nil is the default and costs
	// nothing; either way results are bit-identical — telemetry only
	// observes, it never draws randomness or alters timing (the
	// determinism test enforces this).
	Telemetry *telemetry.Collector
	// EpochCycles caps the lookahead epoch length (cycles each cluster
	// steps between drains). Zero selects the maximum sound value: the
	// minimum L3 round trip, itself capped by the barrier release
	// propagation delay. Values above that cap are clamped down; the
	// knob exists for the epoch-length invariance tests and for
	// debugging. Results are identical at every epoch length except
	// where work waits for an epoch boundary: the HaltOnUncorrectable
	// machine check halts at the first boundary after the upset, and
	// the L3's retention scrubs run at boundaries (DESIGN §4d).
	EpochCycles uint64
}

// DefaultQuota is the default per-thread instruction budget.
const DefaultQuota = 150_000

// maxQuota bounds QuotaInstr so the derived MaxCycles watchdog
// (quota x 200) cannot overflow a uint64.
const maxQuota = ^uint64(0) / 200

// Normalize applies the option defaults and rejects invalid
// combinations in one place: zero quota selects DefaultQuota, zero
// MaxCycles scales to the quota, zero seed selects 1. It does not
// resolve configuration-dependent fault defaults (the negative
// SRAMBitFlipPerCell rail derivation needs the config; resolve does
// that).
func (o *Options) Normalize() error {
	if o.QuotaInstr == 0 {
		o.QuotaInstr = DefaultQuota
	}
	if o.QuotaInstr > maxQuota {
		return fmt.Errorf("sim: quota %d overflows the watchdog cycle bound", o.QuotaInstr)
	}
	if o.MaxCycles == 0 {
		// Generous bound: ~200 cache cycles per instruction per thread.
		o.MaxCycles = o.QuotaInstr * 200
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Faults.MaxWriteRetries < 0 {
		return fmt.Errorf("sim: negative fault write-retry budget %d", o.Faults.MaxWriteRetries)
	}
	if o.Endurance.Seed == 0 {
		o.Endurance.Seed = o.Faults.Seed
	}
	return o.Endurance.Normalize()
}

// resolve applies every default New applies to the options of a run on
// cfg and validates them: Normalize, then the rail-derived SRAM flip
// rate. Fault and endurance settings that inject nothing are then
// cleared, since nothing reads them, so one run has one definition
// whatever seed or ECC scheme it names. New, the checkpoint match rule
// (Info.Holds) and RunKey all call it, so a checkpoint or a stored run
// is compared against the run definition New would actually execute.
func (o *Options) resolve(cfg config.Config) error {
	if err := o.Normalize(); err != nil {
		return err
	}
	if o.Faults.SRAMBitFlipPerCell < 0 {
		// Derive the flip rate from the cache rail: zero for STT-RAM
		// (immune to voltage-dependent upsets), the CellFailProb law
		// for near-threshold SRAM.
		o.Faults.SRAMBitFlipPerCell = reliability.CellFailProb(cfg.Tech, cfg.CacheVdd)
	}
	if err := o.Faults.Validate(cfg.NumClusters(), cfg.ClusterSize); err != nil {
		return err
	}
	if !o.Faults.Enabled() {
		o.Faults = faults.Params{}
	}
	if !o.Endurance.Enabled() {
		o.Endurance = endurance.Params{}
	}
	return nil
}

// Result summarises one run.
type Result struct {
	Config config.Config
	Bench  string
	// Cycles is the execution time in cache cycles; TimePS in ps.
	Cycles uint64
	TimePS int64
	// Instructions retired chip-wide.
	Instructions uint64
	// Energy is the chip-wide meter (cache leakage included).
	Energy power.Meter
	// EnergyPJ is Energy.TotalPJ().
	EnergyPJ float64
	// AvgPowerW is average chip power.
	AvgPowerW float64
	// HalfMissRate is the fraction of shared-L1D reads that suffered a
	// half-miss (zero for private configs).
	HalfMissRate float64
	// ReadCoreCycles aggregates Figure 11 over all clusters.
	ReadCoreCycles *stats.Histogram
	// ArrivalsPerCycle aggregates Figure 10 over all clusters.
	ArrivalsPerCycle *stats.Histogram
	// ActiveCores summarises powered cores per cluster over epochs
	// (Figure 14); startup epochs are excluded.
	ActiveCores stats.Summary
	// Trace is the epoch-by-epoch active-core count of cluster 0
	// (Figures 12-13); populated when Options.EpochTrace is set.
	Trace stats.TimeSeries
	// Stats aggregates cluster event counters.
	Stats cluster.Stats
	// L1DMissRate is the global L1D miss rate.
	L1DMissRate float64
	// Faults counts injected-fault events (all zero when no fault
	// injection was configured).
	Faults faults.Counts
	// Endurance is the wear/retention summary and lifetime projection;
	// nil unless the endurance model was enabled (keeping disabled
	// results byte-identical to pre-endurance output).
	Endurance *endurance.Report
	// DeadCores is the chip-wide count of killed physical cores.
	DeadCores int
	// Metrics is the telemetry snapshot taken at collection time; nil
	// unless Options.Telemetry was enabled.
	Metrics *telemetry.Snapshot
}

// IPC returns chip-wide instructions per cache cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Sim is one configured chip instance.
type Sim struct {
	cfg   config.Config
	chip  *power.Chip
	opts  Options
	bench trace.Profile
	clus  []*cluster.Cluster
	crs   []*clusterRunner

	l3         *mem.Cache
	l3NextFree uint64
	dram       *mem.DRAM
	l3Meter    power.Meter
	faults     *faults.Injector
	// endur is the chip-wide wear/retention tracker (nil when the
	// model is off); endurL3 is the L3's array state within it.
	endur   *endurance.Tracker
	endurL3 *endurance.Array

	trace     stats.TimeSeries
	activeSum stats.Summary

	// Epoch scheduler state (see epoch.go). lookahead is the epoch
	// length K; the chip-level barrier replay tracks barrierPending and
	// the chip-wide waiting/unfinished totals across drains.
	lookahead      uint64
	osEpochCycles  uint64
	barrierPending bool
	totWaiting     int
	totUnfinished  int
	drainPos       []int

	ffSkipped uint64 // cycles fast-forwarded instead of ticked
	ffJumps   uint64 // number of fast-forward jumps taken

	schedEpochs   uint64 // epoch boundaries drained
	schedDrained  uint64 // L3/DRAM requests answered at drains
	schedDegrades uint64 // chip-level skips degraded to slow-path ticking

	// tel is the run's telemetry collector (nil when disabled); event
	// emissions are guarded on it so the untelemetered path pays one
	// pointer test. telEvents records whether an event stream is
	// attached: emission sites that build attribute maps gate on it so a
	// metrics-only collector costs no per-event allocation.
	tel       *telemetry.Collector
	telEvents bool

	// flushBuf is the drain's event-ordering scratch, reused across
	// epochs.
	flushBuf []flushEvent

	// Checkpoint/resume state: startCycle is where RunContext begins
	// (zero unless restored), resumed suppresses the duplicate
	// run.start event, ckpt is the spec RunOrResume armed (zero
	// otherwise), lastCkpt/ckptAtDone drive it, and ckptW sizes each
	// write's buffer from the previous one.
	startCycle uint64
	resumed    bool
	ckpt       CheckpointSpec
	lastCkpt   uint64
	ckptAtDone bool
	ckptW      checkpoint.Writer

	// L3 energy/latency scalars copied out of the immutable chip power
	// model at construction; the drain charges one per answered request.
	eL3Read, eL3Write     float64
	latL3Read, latL3Write uint64
}

// FastForwardedCycles reports how many cycles the idle fast-forward
// skipped instead of ticking (zero with DisableFastForward set).
func (s *Sim) FastForwardedCycles() uint64 { return s.ffSkipped }

// New builds a simulator for one configuration and benchmark.
func New(cfg config.Config, benchName string, opts Options) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	prof, err := trace.ByName(benchName)
	if err != nil {
		return nil, err
	}
	if err := opts.resolve(cfg); err != nil {
		return nil, err
	}

	chip := power.NewChipWithParams(cfg, power.DefaultParams())
	s := &Sim{
		cfg:    cfg,
		chip:   chip,
		opts:   opts,
		bench:  prof,
		l3:     mem.NewCache(cfg.Hierarchy.L3),
		dram:   mem.NewDRAM(),
		faults: faults.New(opts.Faults),
	}
	if opts.Telemetry.Enabled() {
		s.tel = opts.Telemetry
		s.telEvents = opts.Telemetry.Emitting()
	}
	s.eL3Read = chip.EnergyPJ(power.ArrayL3, power.ReadAccess)
	s.eL3Write = chip.EnergyPJ(power.ArrayL3, power.WriteAccess)
	s.latL3Read = uint64(chip.LatencyCycles(power.ArrayL3, power.ReadAccess))
	s.latL3Write = uint64(chip.LatencyCycles(power.ArrayL3, power.WriteAccess))
	if s.faults != nil && cfg.Tech == config.SRAM {
		s.l3.AttachFaults(s.faults)
	}
	// Endurance/retention is an STT failure mode; SRAM configurations
	// ignore the knobs entirely so sweeps can set them uniformly.
	if opts.Endurance.Enabled() && cfg.Tech == config.STTRAM {
		s.endur = endurance.NewTracker(opts.Endurance)
		l3p := cfg.Hierarchy.L3
		s.endurL3 = s.endur.NewArray("l3", -2, l3p.Sets(), l3p.Assoc)
		s.l3.AttachEndurance(s.endurL3)
	}

	// Epoch length: the lookahead bound is the minimum L3 round trip
	// (every buffered request's completion lands at least L2Read+L3Read
	// cycles after issue, i.e. at or beyond the epoch boundary it was
	// issued in), further capped by the barrier release propagation
	// delay so replayed releases never land in a cluster's past.
	rt := uint64(chip.Latencies.L2Read + chip.Latencies.L3Read)
	s.lookahead = max(1, min(rt, barrierReleaseCycles))
	if opts.EpochCycles > 0 && opts.EpochCycles < s.lookahead {
		s.lookahead = opts.EpochCycles
	}
	s.osEpochCycles = uint64(cfg.ConsolidationParams.OSIntervalPS / config.CachePeriodPS)

	vm := variation.Generate(cfg.VariationSeed, 8, 8, cfg.CoreVdd, variation.DefaultParams())
	n := cfg.NumClusters()
	s.clus = make([]*cluster.Cluster, n)
	s.crs = make([]*clusterRunner, n)
	s.drainPos = make([]int, n)
	for i := 0; i < n; i++ {
		s.clus[i] = cluster.New(cluster.Params{
			Config:     cfg,
			Chip:       chip,
			ClusterID:  i,
			PCores:     vm.ClusterCores(i, cfg.ClusterSize),
			Bench:      prof,
			Seed:       opts.Seed,
			QuotaInstr: opts.QuotaInstr,
			// Each cluster draws write-retry faults from its own derived
			// stream, so its draws do not depend on the order clusters
			// step in within an epoch; the root injector keeps the kill
			// schedule and the L3's draws.
			Faults:    s.faults.Derive(int64(i)),
			Telemetry: s.tel.Child(fmt.Sprintf("cluster.%d", i)),
			Endurance: s.endur,
		})
		cr := &clusterRunner{cl: s.clus[i], mgr: s.newManager()}
		cr.logU = s.clus[i].Unfinished()
		cr.repU = cr.logU
		s.totUnfinished += cr.repU
		s.crs[i] = cr
	}
	if s.tel != nil {
		s.registerTelemetry()
	}
	return s, nil
}

// newManager builds the per-cluster consolidation policy.
func (s *Sim) newManager() consolidation.Manager {
	pp := s.cfg.ConsolidationParams
	switch s.cfg.Consolidation {
	case config.GreedyConsolidation, config.OSConsolidation:
		return consolidation.NewGreedy(pp, s.cfg.ClusterSize)
	case config.OracleConsolidation:
		return consolidation.NewOracle(pp, s.cfg.ClusterSize,
			s.chip.CoreLeakW, s.chip.CoreGatedLeakW,
			s.chip.CacheLeakW/float64(s.cfg.NumClusters()))
	default:
		return consolidation.Static(s.cfg.ClusterSize)
	}
}

// l3Access runs one buffered cluster request against the shared L3 (and
// DRAM below it), advancing the port timeline and returning the cycle
// the data is ready. Called only from the serial epoch-boundary drain,
// in global (cycle, cluster, issue-order) order — the same order the
// serial per-cycle loop presented requests.
func (s *Sim) l3Access(start uint64, addr uint64, write bool) uint64 {
	if start < s.l3NextFree {
		start = s.l3NextFree
	}
	s.l3NextFree = start + l3OccupancyCycles
	if s.endurL3 != nil {
		// Keep the L3 retention clock current: drains present requests
		// in deterministic global order, so stamps are too.
		s.l3.SetNow(start)
	}
	if write {
		s.l3Meter.AddPJ(power.CacheDynamic, s.eL3Write)
		res := s.l3.Access(addr, true)
		if !res.Hit {
			fill := s.l3.Fill(addr, true)
			_ = fill // dirty L3 evictions go to DRAM; energy off-chip
		}
		end := start + s.latL3Write
		// STT L3 banks run the same in-array verify-retry loop as the
		// L2; retries extend the write's port hold and cost energy.
		if s.cfg.Tech == config.STTRAM {
			if r := s.faults.ArrayWriteRetries(); r > 0 {
				s.l3Meter.AddPJ(power.CacheDynamic, float64(r)*s.eL3Write)
				extra := uint64(r) * s.latL3Write
				s.l3NextFree += extra
				end += extra
			}
		}
		return end
	}
	s.l3Meter.AddPJ(power.CacheDynamic, s.eL3Read)
	res := s.l3.Access(addr, false)
	if res.Hit {
		return start + s.latL3Read
	}
	memLat := uint64(s.dram.LatencyCacheCycles())
	s.dram.Access()
	s.l3.Fill(addr, false)
	s.l3Meter.AddPJ(power.CacheDynamic, s.eL3Write)
	return start + s.latL3Read + memLat
}

// Run executes the simulation to completion and returns the result.
func (s *Sim) Run() (Result, error) {
	return s.RunContext(context.Background())
}

// RunContext executes the simulation to completion, honouring ctx: on
// cancellation it stops at the next epoch boundary and returns the
// partial Result collected so far alongside the context's error, so an
// interrupted experiment still reports what it measured.
//
// The loop advances in conservative-lookahead epochs (see epoch.go):
// each cluster in turn free-runs [now, end), then the loop drains
// cross-cluster effects in global order and handles the cycle-exact
// chip-level obligations — kills, completion, the watchdog, the machine
// check, and chip-wide idle jumps — all of which land exactly on epoch
// boundaries (kills and the watchdog clamp the epoch so they do).
func (s *Sim) RunContext(ctx context.Context) (Result, error) {
	if s.telEvents && !s.resumed {
		s.tel.Emit("run.start", 0, map[string]any{
			"config":       s.cfg.Kind.String(),
			"scale":        s.cfg.Scale.String(),
			"cluster_size": s.cfg.ClusterSize,
			"bench":        s.bench.Name,
			"seed":         s.opts.Seed,
			"quota":        s.opts.QuotaInstr,
		})
	}

	nextKill, killPending := s.faults.NextKill()

	// Endgame: once every unfinished thread is within an epoch's worth
	// of retirement of its quota, drop to one-cycle epochs so the
	// completion cycle is detected exactly (monotone, so sticky). A
	// resumed run recomputes it on the first iteration: the condition
	// is monotone in retired instructions, so the recomputation agrees
	// with the interrupted run's sticky value.
	endgame := false
	now := s.startCycle
	for {
		if now >= s.opts.MaxCycles {
			s.emitEnd("run.deadlock", now)
			derr := &DeadlockError{
				Bench:          s.bench.Name,
				Kind:           s.cfg.Kind,
				MaxCycles:      s.opts.MaxCycles,
				BarrierPending: s.barrierPending,
			}
			for _, cl := range s.clus {
				derr.Clusters = append(derr.Clusters, diagnose(cl))
			}
			return Result{}, derr
		}
		if ctx.Err() != nil {
			s.emitEnd("run.interrupted", now)
			return s.collect(now), fmt.Errorf("sim: %s/%v interrupted at cycle %d: %w",
				s.bench.Name, s.cfg.Kind, now, ctx.Err())
		}

		// Deliver scheduled core-kill faults. A refused kill (core
		// already dead, or last survivor) is dropped uncounted. Epochs
		// are clamped to the next kill cycle, so delivery lands on the
		// exact scheduled cycle, before that cycle is ticked.
		for killPending && nextKill.Cycle <= now {
			delivered := s.clus[nextKill.Cluster].KillCore(nextKill.Core)
			if delivered {
				s.faults.PopKill()
			} else {
				s.faults.DropKill()
			}
			if s.telEvents {
				s.tel.Emit("fault.kill", now, map[string]any{
					"cluster":   nextKill.Cluster,
					"core":      nextKill.Core,
					"delivered": delivered,
				})
			}
			nextKill, killPending = s.faults.NextKill()
		}

		if s.allDone() {
			// Mirror the serial loop's final iteration: every cluster
			// ticks the completion cycle once more (delivering leftover
			// completions, counting controller idle cycles), and the
			// traffic that tick generates still reaches the L3.
			for _, cr := range s.crs {
				cr.cl.Tick()
			}
			s.drain()
			s.emitEnd("run.end", now)
			return s.collect(now), nil
		}

		if !endgame && s.allCanFinishWithin(endgameBudget(s.lookahead)) {
			endgame = true
		}
		k := s.lookahead
		if endgame {
			k = 1
		}
		end := min(now+k, s.opts.MaxCycles)
		if killPending {
			end = min(end, nextKill.Cycle)
		}

		for _, cr := range s.crs {
			s.runClusterEpoch(cr, end)
		}
		s.drain()
		now = end

		// Machine check: a detected-uncorrectable SRAM word halts the
		// run when the policy says so (at epoch granularity).
		if s.faults.HaltOnUncorrectable() && s.faults.Uncorrectable() {
			s.emitEnd("run.halted", now)
			return s.collect(now), &UncorrectableError{
				Bench: s.bench.Name, Kind: s.cfg.Kind, Cycle: now,
			}
		}

		// Endurance housekeeping at epoch granularity: scrub the shared
		// L3, then check for end-of-life. Wear-out terminates the run
		// with a structured error and the partial result — the
		// degraded-capacity regime before this point is the graceful
		// part; a set with no live ways left cannot be glossed over.
		if s.endur != nil {
			s.endurTick(now)
			if ex := s.endur.Exhausted(); ex != nil {
				s.emitEnd("run.wearout", now)
				return s.collect(now), ex
			}
		}

		// Chip-level idle fast-forward: when no cluster has runnable
		// work, jump over epoch boundaries to the earliest cycle
		// anything can happen. Cycle-exact obligations clamp the jump:
		// pending kills, OS consolidation boundaries, and the watchdog
		// (a deadlocked chip fast-forwards straight into MaxCycles with
		// the same stall accounting a ticked run would accumulate).
		// Intra-epoch idleness is skipped cluster-locally instead
		// (runClusterEpoch).
		if !s.opts.DisableFastForward && !s.allDone() {
			if wake, ok := s.nextWake(killPending, nextKill.Cycle); ok {
				wake = min(wake, s.opts.MaxCycles)
				if wake > now {
					for _, cr := range s.crs {
						if err := cr.cl.TrySkipTo(wake); err != nil {
							// Mis-sized window: leave the cluster where it
							// is; it ticks the skipped range inside the
							// next epoch instead (slow path).
							s.schedDegrades++
						}
					}
					skipped := wake - now
					s.ffSkipped += skipped
					s.ffJumps++
					if s.telEvents && skipped >= ffJumpEventMin {
						s.tel.Emit("ff.jump", now, map[string]any{
							"from": now, "to": wake, "skipped": skipped,
						})
					}
					now = wake
				}
			}
		}

		// Checkpoint at the very end of the iteration: every cluster
		// sits at a drain boundary, and this boundary's chip-level
		// obligations (machine check, endurance scrub, idle jump) are
		// done. Kills due at `now` are still queued in the injector —
		// both the interrupted and the resumed run deliver them at the
		// next loop top, from identical state.
		if err := s.maybeCheckpoint(now); err != nil {
			s.emitEnd("run.interrupted", now)
			return s.collect(now), fmt.Errorf("sim: %s/%v checkpoint at cycle %d: %w",
				s.bench.Name, s.cfg.Kind, now, err)
		}
	}
}

// endurTick runs the chip-owned endurance housekeeping at an epoch
// boundary: the L3's background scrub (refresh energy charged at L3
// write cost) and the lifetime-projection clock.
func (s *Sim) endurTick(now uint64) {
	if s.endurL3 != nil {
		s.l3.SetNow(now)
		if s.endurL3.ScrubDue(now) {
			if n := s.l3.Scrub(now); n > 0 {
				s.l3Meter.AddPJ(power.CacheDynamic, float64(n)*s.eL3Write)
			}
		}
	}
	s.endur.ObserveCycle(now)
}

// collect assembles the final Result.
func (s *Sim) collect(cycles uint64) Result {
	r := Result{
		Config:           s.cfg,
		Bench:            s.bench.Name,
		Cycles:           cycles,
		TimePS:           int64(cycles) * config.CachePeriodPS,
		ReadCoreCycles:   stats.NewHistogram(3),
		ArrivalsPerCycle: stats.NewHistogram(4),
		ActiveCores:      s.activeSum,
		Trace:            s.trace,
	}
	r.Faults = s.faults.Snapshot()
	if s.endur != nil {
		s.endur.ObserveCycle(cycles)
		r.Endurance = s.endur.Report(cycles)
	}
	var l1dReads, l1dMisses uint64
	var halfMissReqs, reads uint64
	for _, cl := range s.clus {
		r.DeadCores += cl.DeadCores()
		m, _ := cl.EpochSnapshot()
		r.Energy.Add(&m)
		st := cl.Stats
		r.Instructions += st.Instructions
		r.Stats.Instructions += st.Instructions
		r.Stats.CoherenceReads += st.CoherenceReads
		r.Stats.SpinAccesses += st.SpinAccesses
		r.Stats.Migrations += st.Migrations
		r.Stats.HWSwitches += st.HWSwitches
		r.Stats.PowerUps += st.PowerUps
		r.Stats.L2Accesses += st.L2Accesses
		r.Stats.L3Accesses += st.L3Accesses
		if ctrl := cl.ControllerD(); ctrl != nil {
			r.ReadCoreCycles.Merge(ctrl.Stats.ReadCoreCycles)
			r.ArrivalsPerCycle.Merge(ctrl.Stats.ArrivalsPerCycle)
			halfMissReqs += ctrl.Stats.RequestsWithHalfMiss.Value()
			reads += ctrl.Stats.Reads.Value()
		}
		if dir := cl.Directory(); dir != nil {
			for c := 0; c < dir.NumCores(); c++ {
				cs := &dir.Cache(c).Stats
				l1dReads += cs.Reads.Value() + cs.Writes.Value()
				l1dMisses += cs.ReadMisses.Value() + cs.WriteMisses.Value()
			}
		}
		if l1d := cl.L1D(); l1d != nil {
			l1dReads += l1d.Stats.Reads.Value() + l1d.Stats.Writes.Value()
			l1dMisses += l1d.Stats.ReadMisses.Value() + l1d.Stats.WriteMisses.Value()
		}
	}
	r.Energy.Add(&s.l3Meter)
	// Chip-wide cache leakage over the whole run.
	r.Energy.AddLeakage(power.CacheLeakage, s.chip.CacheLeakW, r.TimePS)
	r.EnergyPJ = r.Energy.TotalPJ()
	r.AvgPowerW = r.Energy.AvgPowerW(r.TimePS)
	if reads > 0 {
		r.HalfMissRate = float64(halfMissReqs) / float64(reads)
	}
	if l1dReads > 0 {
		r.L1DMissRate = float64(l1dMisses) / float64(l1dReads)
	}
	r.Metrics = s.tel.Snapshot()
	return r
}

// Run is the convenience entry point: build and run one configuration.
func Run(cfg config.Config, bench string, opts Options) (Result, error) {
	return RunContext(context.Background(), cfg, bench, opts)
}

// RunContext is Run with cancellation: on ctx cancellation the partial
// Result measured so far is returned alongside the context's error.
func RunContext(ctx context.Context, cfg config.Config, bench string, opts Options) (Result, error) {
	s, err := New(cfg, bench, opts)
	if err != nil {
		return Result{}, err
	}
	return s.RunContext(ctx)
}
