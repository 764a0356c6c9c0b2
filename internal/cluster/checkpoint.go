package cluster

// Checkpoint support. A cluster's structure — core specs, cache
// geometry, energy scalars, telemetry registrations — is rebuilt by New
// from the same Params, so the snapshot captures only mutable state.
// Snapshots are taken at epoch-drain boundaries, where the transient
// buffers (pendingLower, pendingEvents, sameCycle) are empty by
// construction; Snapshot enforces that invariant rather than
// serializing the buffers.

import (
	"fmt"

	"respin/internal/coherence"
	"respin/internal/cpu"
	"respin/internal/mem"
	"respin/internal/power"
	"respin/internal/sharedcache"
)

// PCoreState mirrors one physical core's mutable state.
type PCoreState struct {
	Active, Dead bool
	Residents    []int
	RRIndex      int
	QuantumInstr uint64
	QuantumCyc   uint64
	StallUntil   uint64
	SwitchLeft   int
}

// VCoreState mirrors one virtual core's scheduling state plus the
// architectural state of its cpu.Core.
type VCoreState struct {
	Core        cpu.CoreState
	PCore       int
	Finished    bool
	AtBarrier   bool
	SpinLeft    int
	LoadPending bool
	LoadIssued  uint64
	FetchAddr   uint64
	PendingCold bool
}

// EventState mirrors one deferred event. The heap's backing slice is
// serialized verbatim — a heap-ordered array restored element-for-
// element is the same heap.
type EventState struct {
	Cycle, Seq uint64
	Kind       int
	VCore      int
	FillAddr   uint64
	FillDirty  bool
	FillICache bool
	Chip       bool
}

// FillEntry is one outstanding fill-table entry.
type FillEntry struct {
	Key    uint64
	Addr   uint64
	Dirty  bool
	ICache bool
}

// State is the cluster's full mutable state, for checkpointing.
type State struct {
	Now uint64

	PCores   []PCoreState
	VCores   []VCoreState
	EdgeNext []uint64

	CtrlI, CtrlD         *sharedcache.ControllerState
	SharedL1I, SharedL1D *mem.CacheState
	Fills                []FillEntry
	FillSeq              uint64

	PrivI         []mem.CacheState
	Dir           *coherence.DirectoryState
	PrivStoreMiss []int

	L2         mem.CacheState
	L2NextFree uint64

	RNGSeed  int64
	RNGDraws uint64

	DeadCnt  int
	Events   []EventState
	EventSeq uint64
	ChipSeq  uint64

	Meter        power.Meter
	LastLeakTick uint64
	ActiveCount  int

	InstrEpoch, EdgesEpoch, BusyEpoch uint64
	BarrierCount, FinishedCount       int
	AssignPtr                         int

	Stats Stats
}

// Snapshot captures the cluster's mutable state. It must be called at a
// drain boundary: buffered lower-level requests, buffered telemetry and
// intra-cycle completions must all have been flushed.
func (cl *Cluster) Snapshot() (State, error) {
	if len(cl.pendingLower) != 0 || len(cl.pendingEvents) != 0 || len(cl.sameCycle) != 0 {
		return State{}, fmt.Errorf("cluster %d: snapshot off a drain boundary (%d lower, %d events, %d same-cycle pending)",
			cl.id, len(cl.pendingLower), len(cl.pendingEvents), len(cl.sameCycle))
	}
	st := State{
		Now:           cl.now,
		FillSeq:       cl.fillSeq,
		L2:            cl.l2.Snapshot(),
		L2NextFree:    cl.l2NextFree,
		DeadCnt:       cl.deadCnt,
		EventSeq:      cl.eventSeq,
		ChipSeq:       cl.chipSeq,
		Meter:         cl.Meter,
		LastLeakTick:  cl.lastLeakTick,
		ActiveCount:   cl.activeCount,
		InstrEpoch:    cl.instrEpoch,
		EdgesEpoch:    cl.edgesEpoch,
		BusyEpoch:     cl.busyEpoch,
		BarrierCount:  cl.barrierCount,
		FinishedCount: cl.finishedCount,
		AssignPtr:     cl.assignPtr,
		Stats:         cl.Stats,
	}
	st.RNGSeed, st.RNGDraws = cl.rng.State()
	st.PCores = make([]PCoreState, 0, len(cl.pcores))
	st.VCores = make([]VCoreState, 0, len(cl.vcores))
	st.EdgeNext = make([]uint64, 0, len(cl.edges))
	for i := range cl.pcores {
		p := &cl.pcores[i]
		st.PCores = append(st.PCores, PCoreState{
			Active: p.active, Dead: p.dead,
			Residents:    append([]int(nil), p.residents...),
			RRIndex:      p.rrIndex,
			QuantumInstr: p.quantumInstr,
			QuantumCyc:   p.quantumCyc,
			StallUntil:   p.stallUntil,
			SwitchLeft:   p.switchLeft,
		})
	}
	for i := range cl.vcores {
		vs := &cl.vcores[i]
		st.VCores = append(st.VCores, VCoreState{
			Core:        vs.core.Snapshot(),
			PCore:       vs.pcore,
			Finished:    vs.finished,
			AtBarrier:   vs.atBarrier,
			SpinLeft:    vs.spinLeft,
			LoadPending: vs.loadPending,
			LoadIssued:  vs.loadIssued,
			FetchAddr:   vs.fetchAddr,
			PendingCold: vs.pendingCold,
		})
	}
	for i := range cl.edges {
		st.EdgeNext = append(st.EdgeNext, cl.edges[i].next)
	}
	if cl.ctrlI != nil {
		ci, cd := cl.ctrlI.State(), cl.ctrlD.State()
		st.CtrlI, st.CtrlD = &ci, &cd
		l1i, l1d := cl.sharedL1I.Snapshot(), cl.sharedL1D.Snapshot()
		st.SharedL1I, st.SharedL1D = &l1i, &l1d
	}
	t := &cl.fills
	for i := range t.keys {
		if t.used[i] {
			st.Fills = append(st.Fills, FillEntry{
				Key: t.keys[i], Addr: t.vals[i].addr,
				Dirty: t.vals[i].dirty, ICache: t.vals[i].icache,
			})
		}
	}
	st.PrivI = make([]mem.CacheState, len(cl.privI))
	for i, c := range cl.privI {
		st.PrivI[i] = c.Snapshot()
	}
	if cl.dir != nil {
		d := cl.dir.State()
		st.Dir = &d
	}
	st.PrivStoreMiss = append([]int(nil), cl.privStoreMiss...)
	st.Events = make([]EventState, 0, len(cl.events.h))
	for _, e := range cl.events.h {
		st.Events = append(st.Events, EventState{
			Cycle: e.cycle, Seq: e.seq, Kind: int(e.kind), VCore: e.vcore,
			FillAddr: e.fill.addr, FillDirty: e.fill.dirty, FillICache: e.fill.icache,
			Chip: e.chip,
		})
	}
	return st, nil
}

// Restore repositions a freshly built cluster (same Params) to a
// captured state. Pointers registered with telemetry (the load-latency
// histogram, the controllers' stats) keep their identity: contents are
// copied in place. A state with a missing part or an index outside the
// cluster is an error here rather than a nil dereference or an
// out-of-range index on a later tick: a valid checksum proves only that
// the bytes are the ones written.
func (cl *Cluster) Restore(st State) error {
	if len(st.PCores) != len(cl.pcores) || len(st.VCores) != len(cl.vcores) {
		return fmt.Errorf("cluster %d: restore geometry mismatch (%d/%d pcores, %d/%d vcores)",
			cl.id, len(st.PCores), len(cl.pcores), len(st.VCores), len(cl.vcores))
	}
	if len(st.EdgeNext) != len(cl.edges) {
		return fmt.Errorf("cluster %d: restore has %d edge groups, cluster has %d", cl.id, len(st.EdgeNext), len(cl.edges))
	}
	shared := cl.ctrlI != nil
	if (st.CtrlI != nil) != shared || (st.CtrlD != nil) != shared ||
		(st.SharedL1I != nil) != shared || (st.SharedL1D != nil) != shared ||
		(st.Dir != nil) != (cl.dir != nil) {
		return fmt.Errorf("cluster %d: restore L1 organisation mismatch", cl.id)
	}
	if st.Stats.LoadLatency == nil {
		return fmt.Errorf("cluster %d: restore has no load-latency histogram", cl.id)
	}
	for i, ps := range st.PCores {
		for _, v := range ps.Residents {
			if v < 0 || v >= len(cl.vcores) {
				return fmt.Errorf("cluster %d: restore pcore %d hosts vcore %d of %d", cl.id, i, v, len(cl.vcores))
			}
		}
		if ps.RRIndex < 0 || ps.RRIndex >= max(len(ps.Residents), 1) {
			return fmt.Errorf("cluster %d: restore pcore %d round-robin index %d over %d residents", cl.id, i, ps.RRIndex, len(ps.Residents))
		}
	}
	for i, vs := range st.VCores {
		if vs.PCore < 0 || vs.PCore >= len(cl.pcores) {
			return fmt.Errorf("cluster %d: restore vcore %d on pcore %d of %d", cl.id, i, vs.PCore, len(cl.pcores))
		}
	}
	cl.now = st.Now
	for i := range cl.pcores {
		p, ps := &cl.pcores[i], &st.PCores[i]
		p.active, p.dead = ps.Active, ps.Dead
		p.residents = append(p.residents[:0], ps.Residents...)
		p.rrIndex = ps.RRIndex
		p.quantumInstr = ps.QuantumInstr
		p.quantumCyc = ps.QuantumCyc
		p.stallUntil = ps.StallUntil
		p.switchLeft = ps.SwitchLeft
	}
	for i := range cl.vcores {
		vs, ss := &cl.vcores[i], &st.VCores[i]
		if err := vs.core.Restore(ss.Core); err != nil {
			return fmt.Errorf("cluster %d: vcore %d: %w", cl.id, i, err)
		}
		vs.pcore = ss.PCore
		vs.finished = ss.Finished
		vs.atBarrier = ss.AtBarrier
		vs.spinLeft = ss.SpinLeft
		vs.loadPending = ss.LoadPending
		vs.loadIssued = ss.LoadIssued
		vs.fetchAddr = ss.FetchAddr
		vs.pendingCold = ss.PendingCold
	}
	for i := range cl.edges {
		cl.edges[i].next = st.EdgeNext[i]
	}
	if cl.ctrlI != nil {
		if err := cl.ctrlI.Restore(*st.CtrlI); err != nil {
			return err
		}
		if err := cl.ctrlD.Restore(*st.CtrlD); err != nil {
			return err
		}
		if err := cl.sharedL1I.Restore(*st.SharedL1I); err != nil {
			return err
		}
		if err := cl.sharedL1D.Restore(*st.SharedL1D); err != nil {
			return err
		}
	}
	cl.fills = fillTable{}
	for _, f := range st.Fills {
		cl.fills.put(f.Key, fillInfo{addr: f.Addr, dirty: f.Dirty, icache: f.ICache})
	}
	cl.fillSeq = st.FillSeq
	if len(st.PrivI) != len(cl.privI) {
		return fmt.Errorf("cluster %d: restore has %d private L1I arrays, cluster has %d", cl.id, len(st.PrivI), len(cl.privI))
	}
	for i, c := range cl.privI {
		if err := c.Restore(st.PrivI[i]); err != nil {
			return err
		}
	}
	if cl.dir != nil {
		if err := cl.dir.Restore(*st.Dir); err != nil {
			return err
		}
	}
	copy(cl.privStoreMiss, st.PrivStoreMiss)
	if err := cl.l2.Restore(st.L2); err != nil {
		return err
	}
	cl.l2NextFree = st.L2NextFree
	cl.rng.Restore(st.RNGSeed, st.RNGDraws)
	cl.deadCnt = st.DeadCnt
	cl.events.h = cl.events.h[:0]
	for _, e := range st.Events {
		cl.events.h = append(cl.events.h, event{
			cycle: e.Cycle, seq: e.Seq, kind: eventKind(e.Kind), vcore: e.VCore,
			fill: fillInfo{addr: e.FillAddr, dirty: e.FillDirty, icache: e.FillICache},
			chip: e.Chip,
		})
	}
	cl.eventSeq = st.EventSeq
	cl.chipSeq = st.ChipSeq
	cl.Meter = st.Meter
	cl.lastLeakTick = st.LastLeakTick
	cl.activeCount = st.ActiveCount
	cl.instrEpoch = st.InstrEpoch
	cl.edgesEpoch = st.EdgesEpoch
	cl.busyEpoch = st.BusyEpoch
	cl.barrierCount = st.BarrierCount
	cl.finishedCount = st.FinishedCount
	cl.assignPtr = st.AssignPtr
	lat := cl.Stats.LoadLatency
	*lat = *st.Stats.LoadLatency
	cl.Stats = st.Stats
	cl.Stats.LoadLatency = lat
	return nil
}
