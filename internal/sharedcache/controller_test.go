package sharedcache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"respin/internal/config"
)

// runTicks advances the controller n cycles, collecting completions.
func runTicks(c *Controller, n int) []Serviced {
	var all []Serviced
	for i := 0; i < n; i++ {
		all = append(all, c.Tick()...)
	}
	return all
}

func findCore(done []Serviced, core int) (Serviced, bool) {
	for _, d := range done {
		if d.Req.Core == core {
			return d, true
		}
	}
	return Serviced{}, false
}

// TestFigure3Example reproduces the paper's worked arbitration example
// cycle for cycle (Section II.A, Figure 3): three 1.6 ns cores request
// in cycle 0, a 2.0 ns and a 2.4 ns core in cycle 1. With deterministic
// lowest-core tie-breaks: core 0 is serviced in cycle 2, core 2 in
// cycle 3, core 3 half-misses and completes in cycle 4 with a
// two-core-cycle hit, core 4 in cycle 5 and core 1 in cycle 6.
func TestFigure3Example(t *testing.T) {
	c := New(5, WithTieBreak(LowestCoreTie))
	// Cycle 0: cores 0, 2, 3 (all 4x / 1.6 ns) issue reads.
	for _, core := range []int{0, 2, 3} {
		if !c.Submit(Request{Core: core, Multiple: 4}) {
			t.Fatalf("submit core %d failed", core)
		}
	}
	c.Tick() // cycle 0
	// Cycle 1: core 4 (5x / 2.0 ns) and core 1 (6x / 2.4 ns) issue.
	c.Submit(Request{Core: 4, Multiple: 5})
	c.Submit(Request{Core: 1, Multiple: 6})
	done := runTicks(c, 6) // cycles 1..6

	expect := map[int]struct {
		cycle      uint64
		coreCycles int
	}{
		0: {2, 1},
		2: {3, 1},
		3: {4, 2}, // the half-miss victim
		4: {5, 1},
		1: {6, 1},
	}
	if len(done) != 5 {
		t.Fatalf("serviced %d requests, want 5: %+v", len(done), done)
	}
	for core, want := range expect {
		got, ok := findCore(done, core)
		if !ok {
			t.Errorf("core %d never serviced", core)
			continue
		}
		if got.Cycle != want.cycle || got.CoreCycles != want.coreCycles {
			t.Errorf("core %d serviced at cycle %d in %d core cycles, want cycle %d in %d",
				core, got.Cycle, got.CoreCycles, want.cycle, want.coreCycles)
		}
	}
	if c.Stats.HalfMisses.Value() != 1 {
		t.Errorf("half-misses = %d, want exactly 1", c.Stats.HalfMisses.Value())
	}
}

func TestPriorityBitsRendering(t *testing.T) {
	c := New(2, WithTieBreak(LowestCoreTie))
	c.Submit(Request{Core: 0, Multiple: 4}) // preload 2 ones
	c.Submit(Request{Core: 1, Multiple: 6}) // preload 4 ones
	c.Tick()
	c.Tick() // arrivals active now
	if got := c.PriorityBits(0); got != "00011" {
		t.Errorf("core 0 bits = %q, want 00011 (Figure 3b)", got)
	}
	if got := c.PriorityBits(1); got != "01111" {
		t.Errorf("core 1 bits = %q, want 01111 (Figure 3b)", got)
	}
	// Inactive slot renders as zeroes.
	if got := c.PriorityBits(0); got == "" {
		t.Error("empty bits")
	}
	c.Tick() // services core 0 (soonest tie -> lowest), shifts core 1
	if got := c.PriorityBits(0); got != "00000" {
		t.Errorf("serviced core bits = %q, want 00000", got)
	}
	if got := c.PriorityBits(1); got != "00111" {
		t.Errorf("core 1 bits after shift = %q, want 00111", got)
	}
}

func TestSingleRequestServicedOnTime(t *testing.T) {
	c := New(1)
	c.Submit(Request{Core: 0, Multiple: 4})
	done := runTicks(c, 4)
	if len(done) != 1 {
		t.Fatalf("serviced %d, want 1", len(done))
	}
	if done[0].CoreCycles != 1 || done[0].HalfMisses != 0 {
		t.Fatalf("lone request = %+v, want 1 core cycle, no half-miss", done[0])
	}
	// Serviced at arrival (cycle 2).
	if done[0].Cycle != 2 {
		t.Fatalf("serviced at cycle %d, want 2 (after transit)", done[0].Cycle)
	}
}

func TestOneReadPerCycle(t *testing.T) {
	c := New(8, WithSeed(7))
	for core := 0; core < 8; core++ {
		c.Submit(Request{Core: core, Multiple: 6})
	}
	var perCycle []int
	for i := 0; i < 12; i++ {
		perCycle = append(perCycle, len(c.Tick()))
	}
	for i, n := range perCycle {
		if n > 1 {
			t.Errorf("cycle %d serviced %d reads, want <= 1 per port", i, n)
		}
	}
}

func TestReadAndWritePortsIndependent(t *testing.T) {
	c := New(4)
	c.Submit(Request{Core: 0, Multiple: 4})
	c.Submit(Request{Core: 1, Multiple: 4, Write: true})
	done := runTicks(c, 3)
	if len(done) != 2 {
		t.Fatalf("serviced %d, want 2 (read + write same cycle)", len(done))
	}
	if done[0].Cycle != done[1].Cycle {
		t.Errorf("read and write serviced in different cycles: %d vs %d", done[0].Cycle, done[1].Cycle)
	}
}

func TestBlockingReadSlot(t *testing.T) {
	c := New(2)
	if !c.Submit(Request{Core: 0, Multiple: 4}) {
		t.Fatal("first submit failed")
	}
	if c.Submit(Request{Core: 0, Multiple: 4}) {
		t.Fatal("second outstanding read accepted — cores block on loads")
	}
	if c.CanSubmitRead(0) {
		t.Fatal("CanSubmitRead true with request in flight")
	}
	if !c.CanSubmitRead(1) {
		t.Fatal("other core wrongly blocked")
	}
	runTicks(c, 4)
	if !c.CanSubmitRead(0) {
		t.Fatal("slot not released after service")
	}
}

func TestStoreBufferDepth(t *testing.T) {
	c := New(1, WithStoreBufferDepth(2))
	if !c.Submit(Request{Core: 0, Multiple: 4, Write: true}) ||
		!c.Submit(Request{Core: 0, Multiple: 4, Write: true}) {
		t.Fatal("store buffer rejected within depth")
	}
	if c.Submit(Request{Core: 0, Multiple: 4, Write: true}) {
		t.Fatal("store buffer overfilled")
	}
	if c.CanSubmitWrite(0) {
		t.Fatal("CanSubmitWrite true at full buffer")
	}
	runTicks(c, 4)
	if !c.CanSubmitWrite(0) {
		t.Fatal("store buffer not drained")
	}
}

func TestFillsUseWritePort(t *testing.T) {
	c := New(2)
	if !c.Submit(Request{Core: FillCore, Write: true, Tag: 99}) {
		t.Fatal("fill rejected")
	}
	done := runTicks(c, 4)
	if len(done) != 1 || done[0].Req.Tag != 99 || done[0].Req.Core != FillCore {
		t.Fatalf("fill service = %+v", done)
	}
	// Fills are always accepted regardless of store buffers.
	if !c.CanSubmitWrite(FillCore) {
		t.Fatal("fill submission blocked")
	}
}

func TestHalfMissCascade(t *testing.T) {
	// Three same-speed (4x) cores arriving together have two on-time
	// service slots, so exactly one takes a half-miss (2 core cycles).
	// A fourth simultaneous core pushes one request to 3 core cycles.
	c := New(4, WithTieBreak(LowestCoreTie))
	for core := 0; core < 4; core++ {
		c.Submit(Request{Core: core, Multiple: 4})
	}
	done := runTicks(c, 9)
	if len(done) != 4 {
		t.Fatalf("serviced %d, want 4", len(done))
	}
	got := map[int]int{}
	for _, d := range done {
		got[d.CoreCycles]++
	}
	want := map[int]int{1: 2, 2: 1, 3: 1}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("core-cycle distribution = %v, want %v", got, want)
		}
	}
	// Figure 11 histogram agrees: bucket 1 twice, bucket 2 once,
	// overflow ("more") once.
	h := c.Stats.ReadCoreCycles
	if h.Count(1) != 2 || h.Count(2) != 1 || h.Count(3) != 1 {
		t.Errorf("Figure 11 histogram = %v", h)
	}
}

func TestArrivalsHistogramCountsEmptyCycles(t *testing.T) {
	c := New(4)
	c.Submit(Request{Core: 0, Multiple: 4})
	c.Submit(Request{Core: 1, Multiple: 4})
	runTicks(c, 5)
	h := c.Stats.ArrivalsPerCycle
	if h.Total() != 5 {
		t.Fatalf("observed %d cycles, want 5", h.Total())
	}
	if h.Count(2) != 1 {
		t.Errorf("one cycle with 2 arrivals expected, histogram: %v", h)
	}
	if h.Count(0) != 4 {
		t.Errorf("four empty cycles expected, histogram: %v", h)
	}
}

func TestHalfMissRate(t *testing.T) {
	c := New(4, WithSeed(3))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		core := rng.Intn(4)
		if c.CanSubmitRead(core) {
			c.Submit(Request{Core: core, Multiple: 4 + rng.Intn(3)})
		}
		c.Tick()
	}
	runTicks(c, 10)
	rate := c.HalfMissRate()
	if rate < 0 || rate > 1 {
		t.Fatalf("half-miss rate = %v out of range", rate)
	}
	// With 4 cores on one port some contention must appear.
	if c.Stats.Reads.Value() == 0 {
		t.Fatal("no reads recorded")
	}
}

func TestFIFOPolicyWorsensHalfMisses(t *testing.T) {
	// Ablation: deadline-aware arbitration must not lose to FIFO on
	// half-miss rate under mixed-speed contention.
	run := func(policy SelectPolicy) float64 {
		c := New(16, WithPolicy(policy), WithSeed(11))
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 30000; i++ {
			core := rng.Intn(16)
			if rng.Float64() < 0.35 && c.CanSubmitRead(core) {
				c.Submit(Request{Core: core, Multiple: 4 + core%3})
			}
			c.Tick()
		}
		return c.HalfMissRate()
	}
	prio := run(SoonestDeadline)
	fifo := run(FIFO)
	t.Logf("half-miss rate: priority %.4f vs FIFO %.4f", prio, fifo)
	if prio > fifo*1.10+0.01 {
		t.Errorf("priority arbitration (%.4f) lost badly to FIFO (%.4f)", prio, fifo)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("zero cores", func() { New(0) })
	mustPanic("more cores than mask bits", func() { New(65) })
	c := New(2)
	mustPanic("core out of range", func() { c.Submit(Request{Core: 5, Multiple: 4}) })
	mustPanic("bad window", func() { c.Submit(Request{Core: 0, Multiple: 9}) })
	mustPanic("read fill", func() { c.Submit(Request{Core: FillCore, Multiple: 4}) })
}

// Property: every accepted read is eventually serviced, exactly once,
// and a request's core-cycle latency is 1 + its half-miss count.
func TestEveryRequestServicedOnce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(8, WithSeed(seed))
		submitted := 0
		serviced := map[uint64]int{}
		var tag uint64
		for i := 0; i < 2000; i++ {
			if rng.Float64() < 0.5 {
				core := rng.Intn(8)
				write := rng.Float64() < 0.3
				tag++
				if c.Submit(Request{Core: core, Write: write, Multiple: 4 + rng.Intn(3), Tag: tag}) {
					submitted++
				}
			}
			for _, d := range c.Tick() {
				serviced[d.Req.Tag]++
				if !d.Req.Write && d.CoreCycles != 1+d.HalfMisses {
					return false
				}
			}
		}
		// Drain.
		for i := 0; i < 200; i++ {
			for _, d := range c.Tick() {
				serviced[d.Req.Tag]++
			}
		}
		if len(serviced) != submitted {
			return false
		}
		for _, n := range serviced {
			if n != 1 {
				return false
			}
		}
		return c.PendingReads() == 0 && c.PendingWrites() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestMostReadsSingleCycleAtModestLoad(t *testing.T) {
	// At the paper's operating point (~1 request/cycle across 16 cores,
	// most cycles idle) the vast majority of reads are 1 core cycle.
	c := New(16, WithSeed(2))
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50000; i++ {
		core := rng.Intn(16)
		if rng.Float64() < 0.25 && c.CanSubmitRead(core) {
			c.Submit(Request{Core: core, Multiple: 4 + rng.Intn(3)})
		}
		c.Tick()
	}
	oneCycle := c.Stats.ReadCoreCycles.Fraction(1)
	t.Logf("single-core-cycle reads: %.3f, half-miss rate %.3f", oneCycle, c.HalfMissRate())
	if oneCycle < 0.80 {
		t.Errorf("single-cycle fraction = %.3f, want > 0.80", oneCycle)
	}
}

func TestWindowConstantsSane(t *testing.T) {
	if fillWindow != config.MaxCoreMultiple {
		t.Error("fill window should match the slowest core")
	}
}

func TestHoldAndReleaseStore(t *testing.T) {
	c := New(2, WithStoreBufferDepth(2))
	// Hold consumes capacity like an in-flight store.
	c.HoldStore(0)
	c.HoldStore(0)
	if c.CanSubmitWrite(0) {
		t.Fatal("buffer should be full after two holds")
	}
	if !c.CanSubmitWrite(1) {
		t.Fatal("other core affected")
	}
	c.ReleaseStore(0)
	if !c.CanSubmitWrite(0) {
		t.Fatal("release did not free a slot")
	}
	// Fill-core holds are no-ops.
	c.HoldStore(FillCore)
	c.ReleaseStore(FillCore)

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("release underflow", func() {
		c2 := New(1)
		c2.ReleaseStore(0)
	})
	mustPanic("hold out of range", func() { c.HoldStore(9) })
	mustPanic("release out of range", func() { c.ReleaseStore(9) })
}

func TestPriorityBitsWidth(t *testing.T) {
	c := New(1)
	// Width = max window - transit + 1 = 6 - 2 + 1 = 5 bits.
	if got := c.PriorityBits(0); len(got) != 5 {
		t.Errorf("register width = %d, want 5", len(got))
	}
	if got := c.PriorityBits(3); got != "00000" {
		t.Errorf("invalid core renders %q, want zeroes", got)
	}
}

func TestCycleAccessor(t *testing.T) {
	c := New(1)
	if c.Cycle() != 0 {
		t.Fatal("fresh controller cycle != 0")
	}
	c.Tick()
	c.Tick()
	if c.Cycle() != 2 {
		t.Fatalf("cycle = %d, want 2", c.Cycle())
	}
}

func TestTrySkipIdleZeroCycles(t *testing.T) {
	c := New(2)
	if err := c.TrySkipIdle(0); err != nil {
		t.Fatalf("k=0 skip on idle controller: %v", err)
	}
	if c.Cycle() != 0 {
		t.Fatalf("k=0 skip advanced the clock to %d", c.Cycle())
	}
	if c.Stats.ArrivalsPerCycle.Total() != 0 {
		t.Fatal("k=0 skip recorded arrival samples")
	}
}

// TestTrySkipIdleEquivalentToTicking: skipping exactly to the next wake
// cycle must be bit-identical to ticking through the idle gap — same
// clock, same service cycles, same arrival histogram.
func TestTrySkipIdleEquivalentToTicking(t *testing.T) {
	const gap = 37
	slow, fast := New(2, WithSeed(3)), New(2, WithSeed(3))
	for i := 0; i < gap; i++ {
		if got := slow.Tick(); len(got) != 0 {
			t.Fatal("idle tick serviced something")
		}
	}
	if err := fast.TrySkipIdle(gap); err != nil {
		t.Fatalf("skip over idle gap: %v", err)
	}
	if slow.Cycle() != fast.Cycle() {
		t.Fatalf("clocks diverged: ticked %d vs skipped %d", slow.Cycle(), fast.Cycle())
	}
	// The wake-up request is serviced on the same cycle either way.
	slow.Submit(Request{Core: 0, Multiple: 4, Tag: 1})
	fast.Submit(Request{Core: 0, Multiple: 4, Tag: 1})
	var sDone, fDone []Serviced
	for i := 0; i < 8; i++ {
		sDone = append(sDone, slow.Tick()...)
		fDone = append(fDone, fast.Tick()...)
	}
	if len(sDone) != 1 || len(fDone) != 1 || sDone[0].Cycle != fDone[0].Cycle {
		t.Fatalf("service diverged: ticked %+v vs skipped %+v", sDone, fDone)
	}
	if slow.Stats.ArrivalsPerCycle.Total() != fast.Stats.ArrivalsPerCycle.Total() ||
		slow.Stats.ArrivalsPerCycle.Fraction(0) != fast.Stats.ArrivalsPerCycle.Fraction(0) {
		t.Fatal("arrival histograms diverged")
	}
}

// TestTrySkipIdleWhileStoreHeld: a held store-buffer slot is occupancy
// accounting for the owning core, not in-flight controller state —
// Idle deliberately ignores it, so the fast-forward may skip while a
// store is held and the slot survives the jump intact.
func TestTrySkipIdleWhileStoreHeld(t *testing.T) {
	c := New(2, WithStoreBufferDepth(1))
	c.HoldStore(0)
	if err := c.TrySkipIdle(100); err != nil {
		t.Fatalf("skip with held store: %v", err)
	}
	if c.Cycle() != 100 {
		t.Fatalf("cycle = %d, want 100", c.Cycle())
	}
	if c.CanSubmitWrite(0) {
		t.Fatal("skip leaked the held store slot")
	}
	c.ReleaseStore(0)
	if !c.CanSubmitWrite(0) {
		t.Fatal("slot not released after skip")
	}
}

func TestTrySkipIdleRefusesBusyController(t *testing.T) {
	c := New(2)
	c.Submit(Request{Core: 0, Multiple: 4, Tag: 1})
	if err := c.TrySkipIdle(50); err != ErrNotIdle {
		t.Fatalf("skip over in-flight request: err = %v, want ErrNotIdle", err)
	}
	if c.Cycle() != 0 {
		t.Fatal("refused skip still advanced the clock")
	}
	// The request is untouched and completes on schedule.
	done := runTicks(c, 8)
	if len(done) != 1 || done[0].Cycle != 2 {
		t.Fatalf("post-refusal service = %+v, want completion at cycle 2", done)
	}
}
