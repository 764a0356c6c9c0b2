package cluster

import (
	"fmt"

	"respin/internal/config"
	"respin/internal/cpu"
	"respin/internal/sharedcache"
)

// NeverWake is the NextWake value of a cluster with no future work of its
// own: it only needs ticking again when an external actor (another
// cluster's barrier release, a scheduled fault, the watchdog) intervenes.
const NeverWake = ^uint64(0)

// NextWake classifies the cluster's immediate future for the chip-level
// idle fast-forward. ok=false means ticking the cluster at cl.now may do
// real work — arbitration, instruction issue, a context switch — so no
// cycle may be skipped. ok=true guarantees that every cycle in
// [cl.now, wake) performs only the linear idle bookkeeping that SkipTo
// replays exactly: controller cycle/zero-arrival counting, epoch
// clock-edge counting, blocked-core stall counting, and barrier spin
// countdowns. wake is the earliest cycle at which something more can
// happen: the next deferred event, the end of a power-up/migration
// stall, or a parked thread's next barrier poll.
func (cl *Cluster) NextWake() (wake uint64, ok bool) {
	wake = NeverWake
	if cl.cfg.L1 == config.SharedL1 && (!cl.ctrlI.Idle() || !cl.ctrlD.Idle()) {
		return 0, false
	}
	if len(cl.endurCaches) > 0 {
		// Retention scrub deadlines are wake points: fast-forwarding
		// past one would delay the scrub and lose lines that a
		// slow-path run would have refreshed.
		wake = min(wake, cl.nextScrubDeadline())
	}
	if e, any := cl.events.peek(); any {
		wake = min(wake, e.cycle)
	}
	for i := range cl.pcores {
		p := &cl.pcores[i]
		if !p.active {
			continue
		}
		mult := uint64(p.spec.Multiple)
		if p.stallUntil > cl.now {
			// Powering up or absorbing a migration penalty: asleep until
			// its first clock edge at or after the stall ends.
			wake = min(wake, edgeAtOrAfter(p.stallUntil, mult))
			continue
		}
		if p.switchLeft > 0 {
			return 0, false
		}
		v := cl.pickResident(i)
		if v < 0 {
			continue
		}
		if cl.cfg.Consolidation == config.OSConsolidation && len(p.residents) >= 2 {
			// The OS scheduling quantum counts down on every clock edge.
			return 0, false
		}
		// A runnable co-resident would borrow the issue slot even while
		// the scheduled context is blocked.
		for _, w := range p.residents {
			if w == v || cl.vcores[w].finished {
				continue
			}
			switch cl.vcores[w].core.State() {
			case cpu.Running, cpu.WaitStore:
				return 0, false
			}
		}
		vs := &cl.vcores[v]
		switch vs.core.State() {
		case cpu.Running, cpu.WaitStore:
			return 0, false
		case cpu.WaitIFetch:
			if !vs.core.FetchInFlight() {
				// The fetch itself is still unissued and retries on
				// every edge.
				return 0, false
			}
		case cpu.AtBarrier:
			// The next barrier poll fires on the spinLeft-th upcoming
			// edge.
			first := edgeAtOrAfter(cl.now, mult)
			wake = min(wake, first+uint64(vs.spinLeft-1)*mult)
		}
		// WaitLoad, or WaitIFetch with the fetch in flight: pure stall
		// counting until a completion event, and the event heap already
		// bounds wake.
	}
	return wake, true
}

// TrySkipTo fast-forwards the cluster from cl.now to target, replaying
// the idle bookkeeping each skipped Tick would have performed. Callers
// must have established via NextWake that no cycle in [cl.now, target)
// does anything beyond that bookkeeping; a non-idle shared-L1
// controller returns sharedcache.ErrNotIdle (wrapped) before any state
// is mutated, so the caller can fall back to slow-path ticking.
func (cl *Cluster) TrySkipTo(target uint64) error {
	if target <= cl.now {
		return nil
	}
	if cl.cfg.L1 == config.SharedL1 {
		// Probe both controllers before advancing either: a half-applied
		// skip would leave their cycle counters disagreeing.
		if !cl.ctrlI.Idle() || !cl.ctrlD.Idle() {
			return fmt.Errorf("cluster %d: skip to %d: %w", cl.id, target, sharedcache.ErrNotIdle)
		}
		k := target - cl.now
		cl.ctrlI.SkipIdle(k)
		cl.ctrlD.SkipIdle(k)
	}
	for i := range cl.pcores {
		p := &cl.pcores[i]
		if !p.active || p.stallUntil > cl.now {
			// Gated or stalled: NextWake guaranteed no edge of this core
			// inside the window does work.
			continue
		}
		edges := edgesIn(cl.now, target-1, uint64(p.spec.Multiple))
		if edges == 0 {
			continue
		}
		v := cl.pickResident(i)
		if v < 0 {
			continue
		}
		cl.edgesEpoch += edges
		vs := &cl.vcores[v]
		switch vs.core.State() {
		case cpu.WaitLoad, cpu.WaitIFetch:
			vs.core.SkipStalls(edges)
		case cpu.AtBarrier:
			if uint64(vs.spinLeft) <= edges {
				panic(fmt.Sprintf("cluster: fast-forward across a barrier poll (spinLeft %d, %d edges skipped)",
					vs.spinLeft, edges))
			}
			vs.spinLeft -= int(edges)
		default:
			panic(fmt.Sprintf("cluster: fast-forward over runnable vcore %d (%v)", v, vs.core.State()))
		}
	}
	cl.now = target
	return nil
}

// SkipTo is TrySkipTo for callers that have already proven idleness via
// NextWake on the same cycle; an unexpected non-idle controller is a
// caller bug and panics.
func (cl *Cluster) SkipTo(target uint64) {
	if err := cl.TrySkipTo(target); err != nil {
		panic(err.Error())
	}
}

// edgeAtOrAfter returns the first clock edge (cycle divisible by mult)
// at or after cycle c.
func edgeAtOrAfter(c, mult uint64) uint64 {
	return (c + mult - 1) / mult * mult
}

// edgesIn counts the clock edges of a core with the given multiple in
// the inclusive cycle range [lo, hi].
func edgesIn(lo, hi, mult uint64) uint64 {
	if hi < lo {
		return 0
	}
	n := hi/mult + 1 // edges in [0, hi]
	if lo > 0 {
		n -= (lo-1)/mult + 1 // minus edges in [0, lo-1]
	}
	return n
}
