package sim

import (
	"sort"

	"respin/internal/cluster"
	"respin/internal/config"
	"respin/internal/consolidation"
	"respin/internal/power"
	"respin/internal/telemetry"
)

// The chip loop is a conservative-lookahead epoch scheduler. Each
// cluster in turn free-runs for an epoch of K cycles, where K never
// exceeds the minimum L3 round trip (L2 read latency + L3 read latency)
// nor the barrier release propagation delay — so no cross-cluster
// effect issued inside an epoch can land inside the same epoch. At each
// epoch boundary the loop:
//
//  1. drains the buffered L2-miss traffic against the shared L3/DRAM
//     port timeline in (cycle, cluster-index, issue-order) order —
//     exactly the order a serial per-cycle loop presents requests —
//     and lands the completion events reserved at issue time;
//  2. replays the global-barrier state machine over the per-cluster
//     (waiters, unfinished) transition logs, evaluating the trigger at
//     every cycle where any count changed (between changes the
//     condition is static, so change cycles are exact);
//  3. applies buffered consolidation-epoch records (trace, summary)
//     and flushes buffered telemetry events in global order;
//  4. delivers core-kill faults, checks completion/watchdog/machine
//     checks, and takes chip-level idle fast-forward jumps.
//
// Results are bit-identical for any epoch length: every boundary
// between cluster-local and shared state is either buffered (L3,
// telemetry, consolidation records) or replayed (barriers) in a
// deterministic global order. The epochs are not there for speed: they
// give the L3 its asynchronous request/completion interface and give
// checkpoints a drain boundary at which every cross-cluster buffer is
// empty.

// barSample records a cluster's barrier counts after the tick of
// `cycle` changed either of them.
type barSample struct {
	cycle               uint64
	waiters, unfinished int
}

// epochRec buffers one consolidation-epoch boundary for ordered
// application at the next drain.
type epochRec struct {
	cycle        uint64
	epoch        int
	active       int
	instructions uint64
}

// clusterRunner is the per-cluster scheduling state. Everything here is
// touched only by the cluster's own epoch step during an epoch, and only
// by the drain between epochs.
type clusterRunner struct {
	cl  *cluster.Cluster
	mgr consolidation.Manager

	// Consolidation bookkeeping (kept per cluster so epoch boundaries
	// can be decided inside the cluster's step at the exact cycle).
	lastMtr   power.Meter
	lastCyc   uint64
	lastOS    uint64
	epochIdx  int
	epochRecs []epochRec
	recPtr    int

	// Barrier transition log: logW/logU detect changes while stepping,
	// repW/repU track the drain's replay cursor.
	barLog     []barSample
	barPtr     int
	logW, logU int
	repW, repU int

	// Cluster-local idle fast-forward accounting, flushed into the
	// Sim's counters at each drain.
	ffSkipped uint64
	ffJumps   uint64
}

// flushEvent is one buffered telemetry emission awaiting its globally
// ordered slot in the JSONL stream.
type flushEvent struct {
	cycle   uint64
	phase   int // 0: cluster-local (retries); 1: consolidation epochs
	cluster int
	ord     int
	coll    *telemetry.Collector
	typ     string
	attrs   map[string]any
}

// endgameBudget returns the instruction slack below which the
// scheduler drops to one-cycle epochs. A virtual core retires at most
// a handful of instructions per clock edge and has at most k+1 edges
// in a k-cycle epoch, so any vcore farther than this from its quota
// cannot finish inside the next epoch — which means the completion
// cycle always falls in the one-cycle-epoch regime and is detected
// exactly, for any lookahead.
func endgameBudget(k uint64) uint64 { return 8*k + 32 }

// runClusterEpoch advances one cluster to cycle `end`, performing the
// per-cycle work the serial chip loop did for it: idle fast-forward,
// ticking, barrier transition logging, and consolidation boundaries.
func (s *Sim) runClusterEpoch(cr *clusterRunner, end uint64) {
	cl := cr.cl
	pp := s.cfg.ConsolidationParams
	mode := s.cfg.Consolidation
	for cl.Now() < end {
		// Cluster-local idle fast-forward: skip within the epoch while
		// this cluster provably does only idle bookkeeping. Deferred L3
		// completions cannot be missed — the lookahead bound puts them
		// at or after `end`. A failed skip (mis-sized window) degrades
		// to slow-path ticking instead of crashing the run.
		if !s.opts.DisableFastForward {
			if wake, ok := cl.NextWake(); ok {
				target := min(wake, end)
				if mode == config.OSConsolidation {
					target = min(target, cr.lastOS+s.osEpochCycles)
				}
				if from := cl.Now(); target > from+1 {
					if err := cl.TrySkipTo(target); err == nil {
						cr.ffSkipped += target - from
						cr.ffJumps++
						continue
					}
				}
			}
		}
		cl.Tick()
		t := cl.Now() - 1

		if w, u := cl.BarrierWaiters(), cl.Unfinished(); w != cr.logW || u != cr.logU {
			cr.barLog = append(cr.barLog, barSample{cycle: t, waiters: w, unfinished: u})
			cr.logW, cr.logU = w, u
		}

		if mode != config.NoConsolidation {
			boundary := false
			if mode == config.OSConsolidation {
				boundary = t-cr.lastOS >= s.osEpochCycles
			} else {
				boundary = cl.EpochInstructions() >= pp.EpochInstructions
			}
			if boundary {
				s.endEpochLocal(cr, t)
			}
		}
	}
}

// endEpochLocal closes cluster cr's consolidation epoch at cycle now.
// It runs inside the cluster's step: the policy decision and
// reconfiguration touch only cluster-local state; the shared bookkeeping (trace, summary,
// telemetry) is buffered as an epochRec and applied at the next drain.
func (s *Sim) endEpochLocal(cr *clusterRunner, now uint64) {
	cl := cr.cl
	meter, cyc := cl.EpochSnapshot()
	delta := meter.Sub(&cr.lastMtr)
	dtPS := int64(cyc-cr.lastCyc) * config.CachePeriodPS
	cacheShare := s.chip.CacheLeakW / float64(len(s.clus))
	energy := delta.TotalPJ() + cacheShare*float64(dtPS)
	m := consolidation.Measurement{
		EPI:          energy / float64(max(cl.EpochInstructions(), 1)),
		Utilization:  cl.EpochUtilization(),
		Instructions: cl.EpochInstructions(),
		TimePS:       dtPS,
		EnergyPJ:     energy,
		DynamicPJ:    delta.DynamicPJ(),
		Active:       cl.ActiveCores(),
	}
	target := cr.mgr.Decide(m)
	cl.SetActiveCores(target)
	cl.ResetEpoch()
	cr.lastMtr = meter
	cr.lastCyc = cyc
	cr.lastOS = now

	cr.epochIdx++
	cr.epochRecs = append(cr.epochRecs, epochRec{
		cycle:        now,
		epoch:        cr.epochIdx,
		active:       cl.ActiveCores(),
		instructions: m.Instructions,
	})
}

// drain is the serial epoch-boundary phase: answer the buffered L3/DRAM
// traffic in global timestamp order, replay the barrier state machine,
// apply consolidation records, and flush buffered telemetry.
func (s *Sim) drain() {
	s.schedEpochs++
	s.drainLower()
	s.replayBarriers()

	flush := s.flushBuf[:0]
	s.applyEpochRecs(&flush)
	for i, cr := range s.crs {
		for ord, pe := range cr.cl.PendingEvents() {
			flush = append(flush, flushEvent{
				cycle: pe.Cycle, phase: 0, cluster: i, ord: ord,
				coll: pe.Collector, typ: pe.Type, attrs: pe.Attrs,
			})
		}
		cr.cl.ResetPendingEvents()
		s.ffSkipped += cr.ffSkipped
		s.ffJumps += cr.ffJumps
		cr.ffSkipped, cr.ffJumps = 0, 0
	}
	if len(flush) > 0 {
		sort.Slice(flush, func(a, b int) bool {
			x, y := &flush[a], &flush[b]
			if x.cycle != y.cycle {
				return x.cycle < y.cycle
			}
			if x.phase != y.phase {
				return x.phase < y.phase
			}
			if x.cluster != y.cluster {
				return x.cluster < y.cluster
			}
			return x.ord < y.ord
		})
		for i := range flush {
			flush[i].coll.Emit(flush[i].typ, flush[i].cycle, flush[i].attrs)
			flush[i] = flushEvent{} // drop attrs/collector references
		}
	}
	s.flushBuf = flush[:0]
}

// drainLower merges the per-cluster request buffers by (issue cycle,
// cluster index, issue order) — the order the serial loop presented
// them — and runs each against the shared L3/DRAM port timeline.
func (s *Sim) drainLower() {
	n := len(s.crs)
	pos := s.drainPos
	for i := range pos {
		pos[i] = 0
	}
	for {
		best := -1
		var bestCycle uint64
		for i := 0; i < n; i++ {
			if pos[i] < s.crs[i].cl.PendingLowerLen() {
				c := s.crs[i].cl.LowerRequestAt(pos[i]).Cycle
				if best < 0 || c < bestCycle {
					best, bestCycle = i, c
				}
			}
		}
		if best < 0 {
			break
		}
		cl := s.crs[best].cl
		r := cl.LowerRequestAt(pos[best])
		ready := s.l3Access(r.Start, r.Addr, r.Write)
		if !r.Write {
			cl.FinishLower(pos[best], ready)
		}
		pos[best]++
		s.schedDrained++
	}
	for _, cr := range s.crs {
		cr.cl.ResetLower()
	}
}

// replayBarriers runs the chip-level barrier state machine over the
// buffered transition logs. The trigger and reset conditions are
// static between transitions, so evaluating at exactly the cycles
// where some cluster's counts changed reproduces the serial per-cycle
// evaluation.
func (s *Sim) replayBarriers() {
	for {
		tc := uint64(0)
		anyLeft := false
		for _, cr := range s.crs {
			if cr.barPtr < len(cr.barLog) {
				c := cr.barLog[cr.barPtr].cycle
				if !anyLeft || c < tc {
					tc = c
					anyLeft = true
				}
			}
		}
		if !anyLeft {
			break
		}
		for _, cr := range s.crs {
			for cr.barPtr < len(cr.barLog) && cr.barLog[cr.barPtr].cycle == tc {
				smp := cr.barLog[cr.barPtr]
				s.totWaiting += smp.waiters - cr.repW
				s.totUnfinished += smp.unfinished - cr.repU
				cr.repW, cr.repU = smp.waiters, smp.unfinished
				cr.barPtr++
			}
		}
		if !s.barrierPending {
			if s.totUnfinished > 0 && s.totWaiting == s.totUnfinished {
				for _, cr := range s.crs {
					cr.cl.ScheduleBarrierRelease(tc + barrierReleaseCycles)
				}
				s.barrierPending = true
			}
		} else if s.totWaiting == 0 {
			s.barrierPending = false
		}
	}
	for _, cr := range s.crs {
		cr.barLog = cr.barLog[:0]
		cr.barPtr = 0
	}
}

// applyEpochRecs merges the buffered consolidation-epoch records by
// (cycle, cluster index) and applies the shared bookkeeping the serial
// loop did inline: the Figure 12-13 trace, the Figure 14 summary, and
// the epoch telemetry event.
func (s *Sim) applyEpochRecs(flush *[]flushEvent) {
	for {
		best := -1
		var bestCycle uint64
		for i, cr := range s.crs {
			if cr.recPtr < len(cr.epochRecs) {
				c := cr.epochRecs[cr.recPtr].cycle
				if best < 0 || c < bestCycle {
					best, bestCycle = i, c
				}
			}
		}
		if best < 0 {
			break
		}
		cr := s.crs[best]
		rec := cr.epochRecs[cr.recPtr]
		cr.recPtr++
		if best == 0 && s.opts.EpochTrace {
			s.trace.Append(float64(rec.cycle)*config.CachePeriodPS*1e-6, float64(rec.active))
		}
		if rec.epoch > 3 {
			s.activeSum.Observe(float64(rec.active))
		}
		if s.telEvents {
			*flush = append(*flush, flushEvent{
				cycle: rec.cycle, phase: 1, cluster: best,
				coll: s.tel, typ: "epoch",
				attrs: map[string]any{
					"cluster":      best,
					"epoch":        rec.epoch,
					"active":       rec.active,
					"instructions": rec.instructions,
					"time_us":      float64(rec.cycle) * config.CachePeriodPS * 1e-6,
				},
			})
		}
	}
	for _, cr := range s.crs {
		cr.epochRecs = cr.epochRecs[:0]
		cr.recPtr = 0
	}
}

// allDone reports whether every cluster has finished.
func (s *Sim) allDone() bool {
	for _, cr := range s.crs {
		if !cr.cl.Done() {
			return false
		}
	}
	return true
}

// allCanFinishWithin reports whether every unfinished virtual core
// chip-wide is within budget instructions of its quota.
func (s *Sim) allCanFinishWithin(budget uint64) bool {
	for _, cr := range s.crs {
		if !cr.cl.CanFinishWithin(budget) {
			return false
		}
	}
	return true
}

// nextWake returns the next cycle at which any cluster- or chip-level
// activity can occur, or ok=false when some cluster has real work at
// its current cycle. Used for chip-level idle jumps across epoch
// boundaries; cycle-exact obligations (OS consolidation boundaries,
// pending kills) clamp the result.
func (s *Sim) nextWake(killPending bool, nextKill uint64) (uint64, bool) {
	wake := uint64(cluster.NeverWake)
	for _, cr := range s.crs {
		w, ok := cr.cl.NextWake()
		if !ok {
			return 0, false
		}
		wake = min(wake, w)
		if s.cfg.Consolidation == config.OSConsolidation {
			wake = min(wake, cr.lastOS+s.osEpochCycles)
		}
	}
	if killPending {
		wake = min(wake, nextKill)
	}
	// The L3's retention scrub deadline bounds chip-level jumps (cluster
	// scrub deadlines already bound each cluster's own NextWake). The
	// scrub itself still runs at the next epoch boundary after the
	// deadline — a bounded, deterministic lag of at most one epoch.
	if s.endurL3 != nil {
		wake = min(wake, s.endurL3.NextScrub())
	}
	return wake, true
}
