package cluster

import (
	"fmt"

	"respin/internal/config"
	"respin/internal/power"
	"respin/internal/vcm"
)

// SetActiveCores reconfigures the cluster to run with n powered physical
// cores, migrating virtual cores as needed. The active set is always the
// n most efficient (fastest) cores, and virtual cores are distributed
// round-robin over them in efficiency order — the paper's remapper
// policy, which biases load toward fast cores. All migration overheads
// are charged here:
//
//   - the target core stalls for the pipeline-drain + register-transfer
//     and architectural-warmup costs per received thread;
//   - migrated threads restart with a cold pipeline (ColdRestart);
//   - a newly powered core stalls for voltage stabilisation;
//   - with private L1s (PR-STT-CC), a gated core's caches are flushed,
//     so its threads lose all cache locality.
func (cl *Cluster) SetActiveCores(n int) {
	alive := len(cl.pcores) - cl.deadCnt
	min := cl.cfg.ConsolidationParams.MinActiveCores
	if min > alive {
		// Graceful degradation: core-kill faults may leave fewer
		// survivors than the configured floor.
		min = alive
	}
	if n < min {
		n = min
	}
	if n > alive {
		n = alive
	}
	if n == cl.activeCount {
		return
	}
	cl.accrueLeakage()

	pp := cl.cfg.ConsolidationParams
	order := cl.aliveOrder()
	wantActive := make([]bool, len(cl.pcores))
	for _, id := range order[:n] {
		wantActive[id] = true
	}

	// Power transitions. Dead cores are never in wantActive, so they
	// can never be re-powered.
	for i := range cl.pcores {
		p := &cl.pcores[i]
		switch {
		case p.active && !wantActive[i]:
			p.active = false
			if cl.cfg.L1 == config.PrivateL1 {
				// The gated core's private caches are lost.
				cl.flushPrivateCaches(i)
			}
		case !p.active && wantActive[i]:
			p.active = true
			p.stallUntil = cl.now + uint64(pp.PowerUpStallPS/config.CachePeriodPS)
			cl.Stats.PowerUps++
		}
	}
	cl.activeCount = n
	cl.redistribute(order)
}

// aliveOrder returns the remapper's preference order over surviving
// cores: efficiency order (or its inverse under the PreferSlowCores
// ablation) with dead cores removed.
func (cl *Cluster) aliveOrder() []int {
	src := cl.order
	if cl.cfg.ConsolidationParams.PreferSlowCores {
		rev := make([]int, len(cl.order))
		for i, id := range cl.order {
			rev[len(cl.order)-1-i] = id
		}
		src = rev
	}
	order := make([]int, 0, len(src))
	for _, id := range src {
		if !cl.pcores[id].dead {
			order = append(order, id)
		}
	}
	return order
}

// flushPrivateCaches models the loss of a gated or dead core's private
// cache state (PR-STT-CC): dirty L1D lines write back through the L2.
func (cl *Cluster) flushPrivateCaches(i int) {
	_, wbs := cl.dir.FlushCore(i)
	for k := 0; k < wbs; k++ {
		cl.l2Writeback(0)
	}
	cl.privI[i].Clear()
}

// redistribute reassigns virtual cores after the active set changed.
// Only displaced virtual cores move (Section III.C): threads on a
// deconfigured core are reassigned round-robin over the active cores
// starting with the most efficient; a newly powered core pulls threads
// from the most-loaded hosts until load is balanced.
func (cl *Cluster) redistribute(order []int) {
	active := make([]int, 0, cl.activeCount)
	for _, id := range order {
		if cl.pcores[id].active {
			active = append(active, id)
		}
	}

	// Orphans: residents of now-inactive (or dead) cores.
	var orphans []int
	for i := range cl.pcores {
		if cl.pcores[i].active {
			continue
		}
		orphans = append(orphans, cl.pcores[i].residents...)
		cl.pcores[i].residents = nil
		cl.pcores[i].rrIndex = 0
	}
	for k, v := range orphans {
		target := active[(cl.assignPtr+k)%len(active)]
		cl.pcores[target].residents = append(cl.pcores[target].residents, v)
		cl.migrate(v, target)
	}
	cl.assignPtr = (cl.assignPtr + len(orphans)) % max(len(active), 1)

	// Rebalance toward newly powered (empty) cores.
	targetLoad := (len(cl.vcores) + len(active) - 1) / max(len(active), 1)
	for _, id := range active {
		for len(cl.pcores[id].residents) < targetLoad {
			src := cl.mostLoaded(id)
			if src < 0 || len(cl.pcores[src].residents) <= len(cl.pcores[id].residents)+1 {
				break
			}
			sp := &cl.pcores[src].residents
			v := (*sp)[len(*sp)-1]
			*sp = (*sp)[:len(*sp)-1]
			if cl.pcores[src].rrIndex >= len(*sp) {
				cl.pcores[src].rrIndex = 0
			}
			cl.pcores[id].residents = append(cl.pcores[id].residents, v)
			cl.migrate(v, id)
		}
	}

	for i := range cl.pcores {
		if cl.pcores[i].rrIndex >= len(cl.pcores[i].residents) {
			cl.pcores[i].rrIndex = 0
		}
		cl.resetQuantum(i)
	}
}

// KillCore delivers a hard core-kill fault to physical core i: the core
// is permanently removed from the cluster (it can never be re-powered)
// and its resident virtual cores are remapped round-robin over the
// survivors — the VCM's graceful-degradation path, a direct reuse of the
// consolidation remapper. With private L1s the dead core's cache state
// is lost, exactly as on power gating. It reports false when the core is
// already dead or is the last survivor (the cluster refuses to die
// entirely — a real chip would be decommissioned, not simulated).
func (cl *Cluster) KillCore(i int) bool {
	if i < 0 || i >= len(cl.pcores) {
		return false
	}
	p := &cl.pcores[i]
	if p.dead || len(cl.pcores)-cl.deadCnt <= 1 {
		return false
	}
	cl.accrueLeakage()
	p.dead = true
	cl.deadCnt++
	if p.active {
		p.active = false
		cl.activeCount--
		if cl.cfg.L1 == config.PrivateL1 {
			cl.flushPrivateCaches(i)
		}
	}
	// If the dead core was the last active one, resurrect the fastest
	// survivor (with the usual power-up stall) so execution continues.
	if cl.activeCount == 0 {
		for _, id := range cl.aliveOrder() {
			q := &cl.pcores[id]
			q.active = true
			q.stallUntil = cl.now + uint64(cl.cfg.ConsolidationParams.PowerUpStallPS/config.CachePeriodPS)
			cl.Stats.PowerUps++
			cl.activeCount = 1
			break
		}
	}
	cl.redistribute(cl.aliveOrder())
	return true
}

// DeadCores returns how many physical cores have been killed.
func (cl *Cluster) DeadCores() int { return cl.deadCnt }

// AliveCores returns how many physical cores survive.
func (cl *Cluster) AliveCores() int { return len(cl.pcores) - cl.deadCnt }

// mostLoaded returns the active pcore with the most residents, excluding
// `except`, or -1.
func (cl *Cluster) mostLoaded(except int) int {
	best, bestN := -1, 0
	for i := range cl.pcores {
		if i == except || !cl.pcores[i].active {
			continue
		}
		if n := len(cl.pcores[i].residents); n > bestN {
			best, bestN = i, n
		}
	}
	return best
}

// migrate moves virtual core v to physical core target, charging the
// migration costs to the target.
func (cl *Cluster) migrate(v, target int) {
	pp := cl.cfg.ConsolidationParams
	vs := &cl.vcores[v]
	vs.pcore = target
	vs.pendingCold = true
	cl.maybeColdRestart(v)
	cl.Stats.Migrations++
	// Register transfer + warmup, in the target's cycles, serialised
	// after any earlier stall on the same target.
	costCycles := uint64(pp.MigrationDrainCycles+pp.WarmupCycles) * uint64(cl.pcores[target].spec.Multiple)
	base := cl.now
	if cl.pcores[target].stallUntil > base {
		base = cl.pcores[target].stallUntil
	}
	cl.pcores[target].stallUntil = base + costCycles
}

// snapshotMeter returns the current accumulated meter including pending
// leakage (the cluster's cache-leakage share is added by the caller).
func (cl *Cluster) snapshotMeter() power.Meter {
	cl.accrueLeakage()
	return cl.Meter
}

// EpochSnapshot finalises leakage accounting and returns the meter plus
// the cycle count; package sim turns consecutive snapshots into the
// epoch's consolidation measurement.
func (cl *Cluster) EpochSnapshot() (power.Meter, uint64) {
	return cl.snapshotMeter(), cl.now
}

// VCoreHost returns the physical core currently hosting virtual core v
// (for tests and traces).
func (cl *Cluster) VCoreHost(v int) int { return cl.vcores[v].pcore }

// PCoreActive reports whether physical core i is powered.
func (cl *Cluster) PCoreActive(i int) bool { return cl.pcores[i].active }

// PCoreMultiple returns physical core i's clock multiple.
func (cl *Cluster) PCoreMultiple(i int) int { return cl.pcores[i].spec.Multiple }

// EfficiencyOrder returns pcore ids fastest-first.
func (cl *Cluster) EfficiencyOrder() []int { return cl.order }

// validate panics if internal invariants are broken (used by tests).
func (cl *Cluster) validate() {
	seen := make(map[int]bool)
	for i := range cl.pcores {
		for _, v := range cl.pcores[i].residents {
			if seen[v] {
				panic(fmt.Sprintf("cluster: vcore %d resident on two pcores", v))
			}
			seen[v] = true
			if cl.vcores[v].pcore != i {
				panic(fmt.Sprintf("cluster: vcore %d host mismatch", v))
			}
		}
	}
	if len(seen) != len(cl.vcores) {
		panic(fmt.Sprintf("cluster: %d of %d vcores resident", len(seen), len(cl.vcores)))
	}
}

// StateCensus counts virtual cores by execution state (debugging aid).
func (cl *Cluster) StateCensus() map[string]int {
	out := make(map[string]int)
	for v := range cl.vcores {
		if cl.vcores[v].finished {
			out["finished"]++
			continue
		}
		out[cl.vcores[v].core.State().String()]++
	}
	return out
}

// PCoreStallCensus counts pcores currently stalled (migration/power-up)
// or in context-switch penalty.
func (cl *Cluster) PCoreStallCensus() (stalled, switching, inactive int) {
	for i := range cl.pcores {
		switch {
		case !cl.pcores[i].active:
			inactive++
		case cl.pcores[i].stallUntil > cl.now:
			stalled++
		case cl.pcores[i].switchLeft > 0:
			switching++
		}
	}
	return
}

// MappingTable snapshots the cluster's virtual-to-physical core map in
// the VCM's ACPI-style format.
func (cl *Cluster) MappingTable() vcm.Table {
	t := vcm.Table{Cluster: cl.id}
	for v := range cl.vcores {
		p := cl.vcores[v].pcore
		t.Entries = append(t.Entries, vcm.Entry{
			Virtual:        v,
			Physical:       p,
			PhysicalActive: cl.pcores[p].active,
			Multiple:       cl.pcores[p].spec.Multiple,
		})
	}
	return t
}
