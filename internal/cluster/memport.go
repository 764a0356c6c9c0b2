package cluster

import (
	"respin/internal/config"
	"respin/internal/power"
	"respin/internal/sharedcache"
)

// memPort adapts *Cluster to the cpu.MemSystem interface. Virtual-core
// requests are routed through the hosting physical core's request slot
// (shared design) or private caches (baseline designs).
type memPort Cluster

// makeTag packs (kind, vcore, address) into a controller tag.
func makeTag(kind uint64, vcore int, addr uint64) uint64 {
	return kind | uint64(vcore)<<3 | addr<<9
}

func tagKind(tag uint64) uint64 { return tag & 7 }
func tagVCore(tag uint64) int   { return int(tag>>3) & 63 }
func tagAddr(tag uint64) uint64 { return tag >> 9 }

// IssueLoad implements cpu.MemSystem.
func (mp *memPort) IssueLoad(v int, addr uint64) bool {
	cl := (*Cluster)(mp)
	vs := &cl.vcores[v]
	p := vs.pcore
	if cl.cfg.L1 == config.SharedL1 {
		// Request registers are per hardware context (virtual core):
		// each of a physical core's hot contexts owns one, so a
		// blocked context's outstanding load does not stop its
		// co-resident from issuing. The deadline window is the hosting
		// physical core's clock multiple.
		if !cl.ctrlD.CanSubmitRead(v) {
			return false
		}
		cl.ctrlD.Submit(sharedcache.Request{
			Core:     v,
			Multiple: cl.pcores[p].spec.Multiple,
			Tag:      makeTag(tagLoad, v, addr),
		})
		cl.shiftEnergy()
		vs.loadPending = true
		vs.loadIssued = cl.now
		return true
	}
	// Private path: the MESI directory resolves state and traffic now;
	// timing is scheduled as completion events.
	out := cl.dir.Read(p, addr)
	cl.chargeL1D(false)
	cl.Stats.CoherenceReads++
	if out.L1Hit {
		// Single-core-cycle private hit: complete within this cycle.
		vs.loadIssued = cl.now
		cl.sameCycle = append(cl.sameCycle, v)
		return true
	}
	cl.privateMissReady(addr, out.SourcedFromCore >= 0, out.Invalidations, out.NeedsL2,
		event{kind: evCompleteLoad, vcore: v})
	cl.chargeCoherence(out.Invalidations, out.WritebacksToL2, out.SourcedFromCore >= 0)
	vs.loadPending = true
	vs.loadIssued = cl.now
	return true
}

// IssueStore implements cpu.MemSystem.
func (mp *memPort) IssueStore(v int, addr uint64) bool {
	cl := (*Cluster)(mp)
	p := cl.vcores[v].pcore
	if cl.cfg.L1 == config.SharedL1 {
		if !cl.ctrlD.CanSubmitWrite(v) {
			return false
		}
		cl.ctrlD.Submit(sharedcache.Request{
			Core:     v,
			Write:    true,
			Multiple: cl.pcores[p].spec.Multiple,
			Tag:      makeTag(tagStore, v, addr),
		})
		cl.shiftEnergy()
		return true
	}
	// Private store misses are throttled by the store-buffer depth:
	// each outstanding write-allocate holds a slot.
	if cl.privStoreMiss[p] >= storeBufferDepth && !cl.dir.WouldHit(p, addr) {
		return false
	}
	out := cl.dir.Write(p, addr)
	cl.chargeL1D(true)
	if !out.L1Hit {
		cl.privateMissReady(addr, out.SourcedFromCore >= 0, out.Invalidations, out.NeedsL2,
			event{kind: evReleaseStore, vcore: p})
		cl.privStoreMiss[p]++
	}
	cl.chargeCoherence(out.Invalidations, out.WritebacksToL2, out.DirtyForward)
	return true
}

// IssueIFetch implements cpu.MemSystem.
func (mp *memPort) IssueIFetch(v int, addr uint64) bool {
	cl := (*Cluster)(mp)
	vs := &cl.vcores[v]
	p := vs.pcore
	if cl.cfg.L1 == config.SharedL1 {
		if !cl.ctrlI.CanSubmitRead(v) {
			return false
		}
		cl.ctrlI.Submit(sharedcache.Request{
			Core:     v,
			Multiple: cl.pcores[p].spec.Multiple,
			Tag:      makeTag(tagIFetch, v, addr),
		})
		cl.shiftEnergy()
		vs.fetchAddr = addr
		return true
	}
	// Private i-cache: read-only, no coherence.
	res := cl.privI[p].Access(addr, false)
	cl.Meter.AddPJ(power.CacheDynamic, cl.eL1IRead)
	cl.shiftEnergy()
	if res.Hit {
		cl.schedule(cl.now+1, event{kind: evCompleteFetch, vcore: v})
		return true
	}
	cl.l2Access(cl.now, addr, false, 0, event{kind: evCompleteFetch, vcore: v})
	cl.privI[p].Fill(addr, false)
	cl.Meter.AddPJ(power.CacheDynamic, cl.eL1IWrite)
	return true
}

// privateMissReady arranges for ev to fire when a private-L1 miss's
// data arrives and performs the L2-side bookkeeping. sourced indicates
// a cache-to-cache forward within the cluster.
func (cl *Cluster) privateMissReady(addr uint64, sourced bool, invalidations int, needsL2 bool, ev event) {
	penalty := uint64(invalidations) * invalidationCycles
	if !sourced && needsL2 {
		cl.l2Access(cl.now, addr, false, penalty, ev)
		return
	}
	// Cache-to-cache forward within the cluster (dirty owner or clean
	// sharer).
	cl.schedule(cl.now+c2cTransferCycles+penalty, ev)
}

// chargeL1D accounts one private L1D access (array + level shifting).
// Private STT-RAM writes run their verify-retry loop inside the array
// (no controller below them), so a write additionally charges one array
// write per drawn retry; the store buffer hides the extra latency.
func (cl *Cluster) chargeL1D(write bool) {
	e := cl.eL1DRead
	if write {
		e = cl.eL1DWrite
		if r := cl.wrFaults.ArrayWriteRetries(); r > 0 {
			cl.Meter.AddPJ(power.CacheDynamic, float64(r)*e)
			if cl.telEvents {
				cl.emitRetry("l1d", r, false)
			}
		}
	}
	cl.Meter.AddPJ(power.CacheDynamic, e)
	cl.shiftEnergy()
}

// chargeCoherence accounts protocol traffic energy: each invalidation
// and forward touches a remote L1, and writebacks push lines to L2.
func (cl *Cluster) chargeCoherence(invalidations, writebacks int, forwarded bool) {
	cl.Meter.AddPJ(power.CacheDynamic, float64(invalidations)*cl.eL1DWrite)
	if forwarded {
		cl.Meter.AddPJ(power.CacheDynamic, cl.eL1DRead+cl.eL1DWrite)
	}
	for i := 0; i < writebacks; i++ {
		cl.l2Writeback(0)
	}
}

// l2Access performs an L2 lookup starting no earlier than `start`,
// modelling port occupancy. The completion events in evs fire when the
// data is available, delta cycles after the access resolves: scheduled
// immediately on an L2 hit, or reserved against the buffered L3 request
// on a miss (the chip-level drain lands them once the shared port
// timeline resolves the round trip).
func (cl *Cluster) l2Access(start uint64, addr uint64, write bool, delta uint64, evs ...event) {
	if start < cl.l2NextFree {
		start = cl.l2NextFree
	}
	cl.l2NextFree = start + l2OccupancyCycles
	cl.Stats.L2Accesses++
	lat := cl.latL2Read
	if write {
		cl.Meter.AddPJ(power.CacheDynamic, cl.eL2Write)
		lat = cl.latL2Write
	} else {
		cl.Meter.AddPJ(power.CacheDynamic, cl.eL2Read)
	}
	var retryCycles uint64
	if write {
		retryCycles = cl.l2WriteRetries()
		cl.l2NextFree += retryCycles
	}
	res := cl.l2.Access(addr, write)
	if res.Hit {
		ready := start + lat + retryCycles + delta
		for _, ev := range evs {
			cl.schedule(ready, ev)
		}
		return
	}
	// L2 miss: buffer the request below, then fill the L2.
	cl.Stats.L3Accesses++
	cl.pushLower(start+lat, addr, false, delta, evs...)
	fill := cl.l2.Fill(addr, write)
	cl.Meter.AddPJ(power.CacheDynamic, cl.eL2Write)
	// The fill's array write retries off the requester's critical path
	// (data is forwarded); retries only hold the write port longer.
	cl.l2NextFree += cl.l2WriteRetries()
	if fill.Writeback {
		// The victim writeback occupies the L3 port around the time the
		// miss is processed; buffering it at the far-future fill time
		// would spuriously serialise later demand misses behind it (the
		// port timeline assumes near-monotonic reservation starts).
		cl.pushLower(start+lat, fill.EvictedAddr, true, 0)
	}
}

// l2Writeback pushes a dirty L1 line to the L2 (occupancy + energy; not
// on any core's critical path).
func (cl *Cluster) l2Writeback(addr uint64) {
	start := cl.now
	if start < cl.l2NextFree {
		start = cl.l2NextFree
	}
	cl.l2NextFree = start + l2OccupancyCycles + cl.l2WriteRetries()
	cl.Stats.L2Accesses++
	cl.Meter.AddPJ(power.CacheDynamic, cl.eL2Write)
	res := cl.l2.Access(addr, true)
	if !res.Hit {
		fill := cl.l2.Fill(addr, true)
		if fill.Writeback {
			cl.pushLower(start, fill.EvictedAddr, true, 0)
		}
	}
}

// l2WriteRetries draws the L2 STT array's write-verify-retry outcome,
// charges one array write per retry, and returns the extra port cycles.
func (cl *Cluster) l2WriteRetries() uint64 {
	r := cl.wrFaults.ArrayWriteRetries()
	if r == 0 {
		return 0
	}
	cl.Meter.AddPJ(power.CacheDynamic, float64(r)*cl.eL2Write)
	if cl.telEvents {
		cl.emitRetry("l2", r, false)
	}
	return uint64(r) * cl.latL2Write
}
