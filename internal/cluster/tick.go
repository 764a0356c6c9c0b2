package cluster

import (
	"respin/internal/config"
	"respin/internal/cpu"
	"respin/internal/power"
	"respin/internal/sharedcache"
	"respin/internal/trace"
)

// Tick advances the cluster by one cache cycle.
func (cl *Cluster) Tick() {
	// 0. Endurance/retention housekeeping (STT arrays with the model
	// attached): advance retention clocks, run due scrub passes.
	if len(cl.endurCaches) > 0 {
		cl.enduranceTick()
	}

	// 1. Deliver deferred completions due this cycle.
	for {
		e, ok := cl.events.peek()
		if !ok || e.cycle > cl.now {
			break
		}
		cl.events.pop()
		cl.handleEvent(e)
	}

	// 2. Shared-cache controllers arbitrate and service.
	if cl.cfg.L1 == config.SharedL1 {
		for _, s := range cl.ctrlI.Tick() {
			cl.serviceI(s)
		}
		for _, s := range cl.ctrlD.Tick() {
			cl.serviceD(s)
		}
	}

	// 3. Physical cores step on their clock edges.
	cl.stepPCores()

	// 4. Same-cycle private-L1 hit completions.
	for _, v := range cl.sameCycle {
		cl.completeLoad(v)
	}
	cl.sameCycle = cl.sameCycle[:0]

	cl.now++
}

// handleEvent delivers one deferred event.
func (cl *Cluster) handleEvent(e event) {
	switch e.kind {
	case evCompleteLoad:
		cl.completeLoad(e.vcore)
	case evCompleteFetch:
		cl.vcores[e.vcore].core.CompleteIFetch()
		cl.maybeColdRestart(e.vcore)
	case evSubmitFill:
		cl.submitFill(e.fill)
	case evReleaseBarrier:
		cl.releaseLocalBarrier()
	case evResumeBarrier:
		cl.vcores[e.vcore].core.ReleaseBarrier()
	case evReleaseStore:
		// e.vcore carries the physical core id here.
		if cl.cfg.L1 == config.SharedL1 {
			cl.ctrlD.ReleaseStore(e.vcore)
		} else {
			cl.privStoreMiss[e.vcore]--
		}
	}
}

// completeLoad finishes a virtual core's outstanding load.
func (cl *Cluster) completeLoad(v int) {
	vs := &cl.vcores[v]
	vs.loadPending = false
	cl.Stats.LoadLatency.Observe(int(cl.now - vs.loadIssued))
	vs.core.CompleteLoad()
	cl.maybeColdRestart(v)
}

// maybeColdRestart applies a deferred post-migration cold restart once
// the virtual core has no fetch in flight.
func (cl *Cluster) maybeColdRestart(v int) {
	vs := &cl.vcores[v]
	if vs.pendingCold && !vs.core.FetchInFlight() {
		vs.core.ColdRestart()
		vs.pendingCold = false
	}
}

// submitFill enqueues a line fill on the appropriate controller's write
// port; if the controller is saturated the fill retries next cycle.
func (cl *Cluster) submitFill(f fillInfo) {
	id := cl.fillSeq
	cl.fillSeq++
	cl.fills.put(id, f)
	ctrl := cl.ctrlD
	if f.icache {
		ctrl = cl.ctrlI
	}
	ctrl.Submit(sharedcache.Request{
		Core:  sharedcache.FillCore,
		Write: true,
		Tag:   makeTag(tagFill, 0, id),
	})
}

// serviceD handles one serviced L1D request: the arbitration delay has
// elapsed; now the array access happens.
func (cl *Cluster) serviceD(s sharedcache.Serviced) {
	// Each verify-failed write attempt burned one array write's energy
	// before the controller re-arbitrated it.
	if s.WriteRetries > 0 {
		cl.Meter.AddPJ(power.CacheDynamic, float64(s.WriteRetries)*cl.eL1DWrite)
	}
	if cl.telEvents && (s.WriteRetries > 0 || s.WriteAborted) {
		cl.emitRetry("l1d", s.WriteRetries, s.WriteAborted)
	}
	switch tagKind(s.Req.Tag) {
	case tagLoad:
		v := tagVCore(s.Req.Tag)
		addr := tagAddr(s.Req.Tag)
		cl.Meter.AddPJ(power.CacheDynamic, cl.eL1DRead)
		res := cl.sharedL1D.Access(addr, false)
		if res.Hit {
			extra := cl.latL1ReadExtra
			if extra == 0 {
				cl.completeLoad(v)
			} else {
				cl.schedule(cl.now+extra, event{kind: evCompleteLoad, vcore: v})
			}
			return
		}
		cl.l2Access(cl.now, addr, false, 0,
			event{kind: evCompleteLoad, vcore: v},
			event{kind: evSubmitFill, fill: fillInfo{addr: addr}})
	case tagStore:
		addr := tagAddr(s.Req.Tag)
		cl.Meter.AddPJ(power.CacheDynamic, cl.eL1DWrite)
		res := cl.sharedL1D.Access(addr, true)
		if !res.Hit {
			// Write-allocate: fetch the line, then install it dirty.
			// The store keeps its buffer slot until the allocate
			// completes, throttling miss streams to the buffer depth.
			cl.l2Access(cl.now, addr, false, 0,
				event{kind: evSubmitFill, fill: fillInfo{addr: addr, dirty: true}},
				event{kind: evReleaseStore, vcore: s.Req.Core})
			cl.ctrlD.HoldStore(s.Req.Core)
		}
	case tagSpin:
		addr := tagAddr(s.Req.Tag)
		cl.Meter.AddPJ(power.CacheDynamic, cl.eL1DRead)
		res := cl.sharedL1D.Access(addr, false)
		if !res.Hit {
			cl.l2Access(cl.now, addr, false, 0,
				event{kind: evSubmitFill, fill: fillInfo{addr: addr}})
		}
	case tagFill:
		id := tagAddr(s.Req.Tag)
		f := cl.fills.take(id)
		cl.Meter.AddPJ(power.CacheDynamic, cl.eL1DWrite)
		res := cl.sharedL1D.Fill(f.addr, f.dirty)
		if res.Writeback {
			cl.l2Writeback(res.EvictedAddr)
		}
	}
}

// serviceI handles one serviced L1I request.
func (cl *Cluster) serviceI(s sharedcache.Serviced) {
	if s.WriteRetries > 0 {
		cl.Meter.AddPJ(power.CacheDynamic, float64(s.WriteRetries)*cl.eL1IWrite)
	}
	if cl.telEvents && (s.WriteRetries > 0 || s.WriteAborted) {
		cl.emitRetry("l1i", s.WriteRetries, s.WriteAborted)
	}
	switch tagKind(s.Req.Tag) {
	case tagIFetch:
		v := tagVCore(s.Req.Tag)
		addr := tagAddr(s.Req.Tag)
		cl.Meter.AddPJ(power.CacheDynamic, cl.eL1IRead)
		res := cl.sharedL1I.Access(addr, false)
		if res.Hit {
			extra := cl.latL1ReadExtra
			if extra == 0 {
				cl.vcores[v].core.CompleteIFetch()
				cl.maybeColdRestart(v)
			} else {
				cl.schedule(cl.now+extra, event{kind: evCompleteFetch, vcore: v})
			}
			return
		}
		cl.l2Access(cl.now, addr, false, 0,
			event{kind: evCompleteFetch, vcore: v},
			event{kind: evSubmitFill, fill: fillInfo{addr: addr, icache: true}})
	case tagFill:
		id := tagAddr(s.Req.Tag)
		f := cl.fills.take(id)
		cl.Meter.AddPJ(power.CacheDynamic, cl.eL1IWrite)
		res := cl.sharedL1I.Fill(f.addr, false)
		if res.Writeback {
			cl.l2Writeback(res.EvictedAddr)
		}
	}
}

// stepPCores advances every active physical core whose clock edge falls
// on this cache cycle. The per-group next-edge cache turns the modulo
// test into a compare; a fast-forward jump leaves next in the past, and
// the resync divide runs once per jump instead of once per cycle.
func (cl *Cluster) stepPCores() {
	for gi := range cl.edges {
		g := &cl.edges[gi]
		if cl.now != g.next {
			if cl.now < g.next {
				continue
			}
			g.next = edgeAtOrAfter(cl.now, g.mult)
			if cl.now != g.next {
				continue
			}
		}
		g.next += g.mult
		for _, i := range g.ids {
			cl.stepPCore(i)
		}
	}
}

// stepPCore advances one physical core by one of its cycles. The core
// holds up to two hot hardware contexts (Section III.C's fine-grain
// switching): when the scheduled virtual core cannot issue this cycle
// (blocked, at a barrier, or in a dependency bubble), the next runnable
// co-resident context uses the issue slot instead, at no cost. The
// OS-driven comparator has no such hardware and time-shares on its
// coarse quantum only.
func (cl *Cluster) stepPCore(i int) {
	p := &cl.pcores[i]
	if !p.active || p.stallUntil > cl.now {
		return
	}
	if p.switchLeft > 0 {
		p.switchLeft--
		return
	}
	v := cl.pickResident(i)
	if v < 0 {
		return
	}
	cl.edgesEpoch++
	issued := cl.execContext(i, v)
	if issued == 0 && len(p.residents) > 1 && cl.cfg.Consolidation != config.OSConsolidation {
		if v2 := cl.nextRunnable(i, v); v2 >= 0 {
			issued = cl.execContext(i, v2)
		}
	}
	if issued > 0 {
		cl.busyEpoch++
	}
	cl.tickQuantum(i)
}

// execContext advances one virtual core by one cycle of pcore i and
// returns the instructions it retired.
func (cl *Cluster) execContext(i, v int) int {
	p := &cl.pcores[i]
	vs := &cl.vcores[v]
	switch vs.core.State() {
	case cpu.AtBarrier:
		cl.spin(i, v)
		return 0
	case cpu.WaitLoad, cpu.WaitIFetch:
		vs.core.Step() // counts the stall; may re-issue a blocked fetch
		return 0
	}

	n := vs.core.Step()
	if n > 0 {
		un := uint64(n)
		cl.instrEpoch += un
		cl.Stats.Instructions += un
		cl.Meter.AddPJ(power.CoreDynamic, float64(n)*cl.chip.CoreEPIpJ)
		if p.quantumInstr != ^uint64(0) {
			if un >= p.quantumInstr {
				p.quantumInstr = 0
			} else {
				p.quantumInstr -= un
			}
		}
		if !vs.finished && vs.core.Retired() >= cl.quota {
			vs.finished = true
			cl.finishedCount++
		}
	}
	// Barrier entry detection.
	if vs.core.State() == cpu.AtBarrier && !vs.atBarrier {
		vs.atBarrier = true
		cl.barrierCount++
		vs.spinLeft = spinIntervalCoreCycles
	}
	return n
}

// nextRunnable returns the next co-resident context after v on pcore i
// that could issue this cycle, or -1. The round-robin index wraps by
// compare instead of a hardware divide (rrIndex is kept below the
// resident count by redistribute/tickQuantum).
func (cl *Cluster) nextRunnable(i, v int) int {
	p := &cl.pcores[i]
	res := p.residents
	n := len(res)
	idx := p.rrIndex + 1
	if idx >= n {
		idx -= n
	}
	for k := 0; k < n; k++ {
		cand := res[idx]
		idx++
		if idx == n {
			idx = 0
		}
		if cand == v {
			continue
		}
		vs := &cl.vcores[cand]
		if vs.finished {
			continue
		}
		switch vs.core.State() {
		case cpu.Running, cpu.WaitStore:
			return cand
		}
	}
	return -1
}

// pickResident returns the unfinished virtual core currently scheduled
// on pcore i, rotating past finished ones, or -1. The single-resident
// case (no consolidation yet, or one thread per core) is the common one
// and takes the branch-free path.
func (cl *Cluster) pickResident(i int) int {
	p := &cl.pcores[i]
	res := p.residents
	n := len(res)
	if n == 0 {
		return -1
	}
	if n == 1 {
		v := res[0]
		if cl.vcores[v].finished {
			return -1
		}
		p.rrIndex = 0
		return v
	}
	idx := p.rrIndex
	if idx >= n {
		idx %= n
	}
	for k := 0; k < n; k++ {
		v := res[idx]
		if !cl.vcores[v].finished {
			p.rrIndex = idx
			return v
		}
		idx++
		if idx == n {
			idx = 0
		}
	}
	return -1
}

// spin issues a barrier-line poll for the resident waiter.
func (cl *Cluster) spin(i, v int) {
	vs := &cl.vcores[v]
	vs.spinLeft--
	if vs.spinLeft > 0 {
		return
	}
	vs.spinLeft = spinIntervalCoreCycles
	cl.Stats.SpinAccesses++
	if cl.cfg.L1 == config.SharedL1 {
		if cl.ctrlD.CanSubmitRead(v) {
			cl.ctrlD.Submit(sharedcache.Request{
				Core:     v,
				Multiple: cl.pcores[i].spec.Multiple,
				Tag:      makeTag(tagSpin, v, trace.BarrierAddr),
			})
			cl.shiftEnergy()
		}
		return
	}
	cl.dir.Read(i, trace.BarrierAddr)
	cl.chargeL1D(false)
}

// tickQuantum decrements the context-switch quantum and rotates to the
// next resident when it expires.
func (cl *Cluster) tickQuantum(i int) {
	p := &cl.pcores[i]
	if len(p.residents) < 2 {
		return
	}
	rotate := false
	if p.quantumCyc != ^uint64(0) {
		p.quantumCyc--
		if p.quantumCyc == 0 {
			rotate = true
		}
	}
	if p.quantumInstr == 0 {
		rotate = true
	}
	if !rotate {
		return
	}
	n := len(p.residents)
	for k := 1; k < n; k++ {
		idx := (p.rrIndex + k) % n
		if !cl.vcores[p.residents[idx]].finished {
			p.rrIndex = idx
			break
		}
	}
	cl.Stats.HWSwitches++
	if cl.cfg.Consolidation == config.OSConsolidation {
		p.switchLeft = int(osSwitchPenaltyPS / p.spec.PeriodPS)
	} else {
		p.switchLeft = hwSwitchPenaltyCoreCycles
	}
	cl.resetQuantum(i)
}

// ScheduleBarrierRelease arranges for this cluster's parked virtual
// cores to resume at the given cache cycle (the chip-level barrier
// coordinator accounts for cross-cluster release propagation). The
// / event lives in the chip band of the heap: its order against
// same-cycle cluster-local events is fixed by construction, not by how
// many local sequence numbers were consumed before the coordinator
// observed the barrier — which depends on when the chip loop runs.
// cycle == cl.now is legitimate (a release landing exactly on an epoch
// boundary) and is delivered by the next Tick.
func (cl *Cluster) ScheduleBarrierRelease(cycle uint64) {
	if cycle < cl.now {
		cycle = cl.now
	}
	e := event{cycle: cycle, seq: cl.chipSeq, kind: evReleaseBarrier, chip: true}
	cl.chipSeq++
	cl.events.push(e)
}

// releaseLocalBarrier resumes every parked virtual core. In the private
// design the release write invalidates every spinner's cached barrier
// line — the coherence storm the shared design avoids; its latency cost
// is the cache-to-cache refetch each spinner performs before resuming.
func (cl *Cluster) releaseLocalBarrier() {
	if cl.cfg.L1 == config.PrivateL1 && cl.barrierCount > 0 {
		// The releasing store (performed once, by the thread that
		// arrived last, possibly in another cluster) invalidates all
		// local spinners.
		for i := range cl.pcores {
			if res := cl.dir.Cache(i).Invalidate(trace.BarrierAddr); res.Hit {
				cl.Meter.AddPJ(power.CacheDynamic, cl.eL1DWrite)
			}
		}
	}
	resumeDelay := uint64(0)
	if cl.cfg.L1 == config.PrivateL1 {
		resumeDelay = c2cTransferCycles
	}
	for v := range cl.vcores {
		vs := &cl.vcores[v]
		if !vs.atBarrier {
			continue
		}
		vs.atBarrier = false
		cl.barrierCount--
		if resumeDelay == 0 {
			vs.core.ReleaseBarrier()
		} else {
			cl.schedule(cl.now+resumeDelay, event{kind: evResumeBarrier, vcore: v})
		}
	}
}
