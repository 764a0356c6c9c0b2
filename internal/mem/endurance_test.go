package mem

import (
	"testing"

	"respin/internal/endurance"
)

// endurCache builds the 4-set x 2-way test cache with an endurance
// model attached, returning the tracker for report inspection.
func endurCache(p endurance.Params) (*Cache, *endurance.Tracker) {
	c := smallCache()
	tr := endurance.NewTracker(p)
	c.AttachEndurance(tr.NewArray("test", 0, int(c.numSets), c.assoc))
	return c, tr
}

func TestWayRetirementReducesAssociativity(t *testing.T) {
	// Near-deterministic budgets of ~6 writes per way.
	c, tr := endurCache(endurance.Params{Seed: 1, BudgetMean: 6, BudgetSigma: 0.01})
	c.Fill(0x0, false) // set 0, way 0
	n := 0
	for !c.Endurance().Retired(0, 0) {
		if !c.Access(0x0, true).Hit {
			// The line was dropped by a prior retirement — impossible
			// before Retired reports it.
			t.Fatal("line lost before way retired")
		}
		n++
		if n > 100 {
			t.Fatal("way never retired")
		}
	}
	// Retirement drops the line it held: the next access misses.
	if c.Access(0x0, false).Hit {
		t.Fatal("retired way still serves its line")
	}
	if c.LiveCapacity() != c.Capacity()-1 {
		t.Fatalf("LiveCapacity = %d, want %d", c.LiveCapacity(), c.Capacity()-1)
	}
	// The set keeps operating at associativity 1: fills land in the
	// surviving way and never touch the retired one.
	if r := c.Fill(0x0, false); r.Evicted || r.Bypassed {
		t.Fatalf("fill after retirement = %+v", r)
	}
	if !c.Contains(0x0) {
		t.Fatal("fill after retirement not installed")
	}
	if r := c.Fill(0x200, false); !r.Evicted || r.EvictedAddr != 0x0 {
		t.Fatalf("reduced-assoc eviction = %+v, want eviction of 0x0", r)
	}
	rep := tr.Report(uint64(n))
	if rep.RetiredWays != 1 || rep.RetireLosses != 1 {
		t.Fatalf("report = %d ways / %d losses, want 1/1", rep.RetiredWays, rep.RetireLosses)
	}
}

func TestFullSetRetirementBypassesFills(t *testing.T) {
	c, tr := endurCache(endurance.Params{Seed: 1, BudgetMean: 6, BudgetSigma: 0.01})
	// Wear out both ways of set 0 (blocks 0x0 and 0x200 both map there).
	c.Fill(0x0, false)
	c.Fill(0x200, false)
	for i := 0; i < 200 && tr.Exhausted() == nil; i++ {
		if !c.Contains(0x0) {
			c.Fill(0x0, false)
		}
		if !c.Contains(0x200) {
			c.Fill(0x200, false)
		}
		c.Access(0x0, true)
		c.Access(0x200, true)
	}
	ex := tr.Exhausted()
	if ex == nil {
		t.Fatal("set never wore out")
	}
	if ex.Set != 0 {
		t.Fatalf("exhausted set %d, want 0", ex.Set)
	}
	// Fills to the dead set bypass without panicking or evicting.
	r := c.Fill(0x0, true)
	if !r.Bypassed || r.Evicted {
		t.Fatalf("fill into dead set = %+v, want bypass", r)
	}
	if c.Contains(0x0) || c.Access(0x0, false).Hit {
		t.Fatal("dead set still holds lines")
	}
	// Other sets are unaffected.
	c.Fill(0x20, false)
	if !c.Contains(0x20) {
		t.Fatal("healthy set stopped working")
	}
}

func TestRetentionExpiryIsAMiss(t *testing.T) {
	c, tr := endurCache(endurance.Params{RetentionCycles: 100, ScrubPeriod: 50})
	c.SetNow(10)
	c.Fill(0x0, true) // dirty line written at cycle 10
	c.SetNow(60)
	if !c.Access(0x0, false).Hit {
		t.Fatal("line expired before its deadline")
	}
	c.SetNow(200) // 200-10 > 100: expired
	if c.Contains(0x0) || c.State(0x0) != StateInvalid {
		t.Fatal("expired line still observable")
	}
	if c.Access(0x0, false).Hit {
		t.Fatal("expired line still hits")
	}
	rep := tr.Report(200)
	if rep.RetentionLosses != 1 || rep.RetentionDirty != 1 {
		t.Fatalf("losses = %d (%d dirty), want 1 (1)", rep.RetentionLosses, rep.RetentionDirty)
	}
	// The miss path refills as usual and the line lives again.
	c.Fill(0x0, false)
	if !c.Contains(0x0) {
		t.Fatal("refill after expiry failed")
	}
}

func TestScrubRefreshesBeforeExpiry(t *testing.T) {
	c, tr := endurCache(endurance.Params{RetentionCycles: 100, ScrubPeriod: 50})
	c.SetNow(10)
	c.Fill(0x0, false)   // expires at 110
	c.Fill(0x400, false) // set 0, second way
	if n := c.Scrub(50); n != 0 {
		// Neither line expires before the pass after this one (at 100),
		// so neither needs a refresh yet.
		t.Fatalf("first Scrub refreshed %d lines, want 0", n)
	}
	if n := c.Scrub(100); n != 2 {
		// Both would expire (at 110) before the next pass at 150: both
		// are refreshed in place.
		t.Fatalf("second Scrub refreshed %d lines, want 2", n)
	}
	c.SetNow(190) // original deadline long past, refreshed stamps hold
	if !c.Access(0x0, false).Hit || !c.Access(0x400, false).Hit {
		t.Fatal("refreshed lines expired")
	}
	rep := tr.Report(190)
	if rep.Scrubs != 2 || rep.ScrubRefreshes != 2 || rep.RetentionLosses != 0 {
		t.Fatalf("scrub report = %+v", rep)
	}
	// A line that expired before the pass is reaped as a loss. The two
	// earlier lines are removed first so they can't expire too.
	c.Invalidate(0x0)
	c.Invalidate(0x400)
	c.Fill(0x20, false) // written at 190
	c.Scrub(300)        // 300-190 > 100: expired before this pass
	if c.Contains(0x20) {
		t.Fatal("expired line survived scrub")
	}
	if rep := tr.Report(300); rep.RetentionLosses != 1 {
		t.Fatalf("scrub losses = %d, want 1", rep.RetentionLosses)
	}
}

func TestExpiredVictimSuppressesWriteback(t *testing.T) {
	c, _ := endurCache(endurance.Params{RetentionCycles: 100, ScrubPeriod: 50})
	c.SetNow(0)
	c.Fill(0x0, true) // dirty
	c.Fill(0x200, false)
	c.SetNow(300) // both expired
	// Filling a third block into set 0 evicts an expired line: its
	// data no longer exists, so no writeback may be emitted.
	r := c.Fill(0x400, false)
	if !r.Evicted || r.Writeback {
		t.Fatalf("expired-victim eviction = %+v, want eviction without writeback", r)
	}
	if c.Stats.Writebacks.Value() != 0 {
		t.Fatal("expired victim counted a writeback")
	}
}

func TestWearLevelRotationRemapsAndFlushes(t *testing.T) {
	c, tr := endurCache(endurance.Params{
		Seed: 1, BudgetMean: 1e9, WearLevel: true, WearLevelPeriod: 4,
	})
	c.Fill(0x0, true)
	for i := 0; i < 4; i++ {
		c.Access(0x0, true)
	}
	rep := tr.Report(10)
	if rep.Rotations == 0 {
		t.Fatal("rotation never fired")
	}
	if rep.RotationFlushWB == 0 {
		t.Fatal("rotation flush lost the dirty line silently")
	}
	// The array was flushed by the rotation; it keeps working with the
	// shifted mapping.
	if c.Contains(0x0) {
		t.Fatal("rotation left stale contents")
	}
	c.Fill(0x0, false)
	if !c.Contains(0x0) || !c.Access(0x0, false).Hit {
		t.Fatal("post-rotation fill/hit broken")
	}
	// Rotation spreads writes across set indices: hammering one block
	// long enough touches more than one set.
	for i := 0; i < 40; i++ {
		if !c.Access(0x0, true).Hit {
			c.Fill(0x0, true)
		}
	}
	if rep := tr.Report(50); rep.MaxSetWear >= rep.Writes {
		t.Fatalf("all %d writes landed on one set despite rotation", rep.Writes)
	}
}

func TestEnduranceOffIsFree(t *testing.T) {
	// Detached caches behave exactly as before: no expiry, no bypass,
	// full capacity.
	c := smallCache()
	c.SetNow(1 << 40)
	c.Fill(0x0, true)
	if !c.Access(0x0, false).Hit {
		t.Fatal("detached cache expired a line")
	}
	if c.LiveCapacity() != c.Capacity() {
		t.Fatal("detached cache lost capacity")
	}
	if c.Scrub(1<<41) != 0 {
		t.Fatal("detached cache scrubbed")
	}
}

// TestGrowthSkipsRetiredWays: ways beyond a set's block are never
// written by the array, but an endurance model restored apart from the
// array can still mark one retired. A fill that grows the block then
// takes the first unretired way beyond it, the victim a flat layout
// picks, and leaves the retired way empty.
func TestGrowthSkipsRetiredWays(t *testing.T) {
	c, _ := endurCache(endurance.Params{Seed: 1, BudgetMean: 6, BudgetSigma: 0.01})
	for n := 0; !c.Endurance().RecordWrite(0, 0, 0); n++ {
		if n > 100 {
			t.Fatal("way 0 of set 0 never retired")
		}
	}
	if r := c.Fill(0x0, false); r.Evicted || r.Bypassed {
		t.Fatalf("fill into an empty set = %+v", r)
	}
	if st := c.Snapshot(); len(st.Index) != 1 || st.Index[0] != 1 {
		t.Fatalf("the fill landed in ways %v of set 0, want way 1 alone", st.Index)
	}
}
