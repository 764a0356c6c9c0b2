package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAllProfilesValidate(t *testing.T) {
	names := Names()
	if len(names) != 13 {
		t.Fatalf("profile count = %d, want 13 (9 SPLASH-2 + 4 PARSEC)", len(names))
	}
	for _, n := range names {
		p := MustByName(n)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}

func TestNamesOrderAndSuites(t *testing.T) {
	names := Names()
	if len(names) != 13 {
		t.Fatalf("%d benchmarks, want 13 (9 SPLASH-2 + 4 PARSEC)", len(names))
	}
	// SPLASH-2 first.
	splash := map[string]bool{"barnes": true, "cholesky": true, "fft": true, "lu": true,
		"ocean": true, "radiosity": true, "radix": true, "raytrace": true, "water-nsquared": true}
	for i, n := range names {
		p := MustByName(n)
		if i < 9 && (p.Suite != "splash2" || !splash[n]) {
			t.Errorf("position %d: %s should be SPLASH-2", i, n)
		}
		if i >= 9 && p.Suite != "parsec" {
			t.Errorf("position %d: %s should be PARSEC", i, n)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nosuchbench"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustByName should panic on unknown name")
		}
	}()
	MustByName("nosuchbench")
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good := MustByName("fft")
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.MemRatio = 0 },
		func(p *Profile) { p.MemRatio = 1.5 },
		func(p *Profile) { p.WriteFrac = -0.1 },
		func(p *Profile) { p.ShareFrac = 2 },
		func(p *Profile) { p.CodeKB = 0 },
		func(p *Profile) { p.Phases = nil },
		func(p *Profile) { p.Phases = []Phase{{DurInstr: 0, ILP: 0.5, MemScale: 1}} },
		func(p *Profile) { p.Phases = []Phase{{DurInstr: 10, ILP: 0, MemScale: 1}} },
		func(p *Profile) { p.Phases = []Phase{{DurInstr: 10, ILP: 1.5, MemScale: 1}} },
		func(p *Profile) { p.Phases = []Phase{{DurInstr: 10, ILP: 0.5, MemScale: 4}} }, // intensity >= 1
		func(p *Profile) { p.Phases = []Phase{{DurInstr: 10, ILP: 0.5, MemScale: 1, Imbalance: 2}} },
	}
	for i, mutate := range cases {
		p := good
		p.Phases = append([]Phase(nil), good.Phases...)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad profile accepted", i)
		}
	}
}

func TestGenDeterminism(t *testing.T) {
	p := MustByName("radix")
	a := NewGen(p, 7, 3, 1)
	b := NewGen(p, 7, 3, 1)
	for i := 0; i < 2000; i++ {
		ea, eb := a.Next(), b.Next()
		if ea != eb {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea, eb)
		}
		if a.NextFetchAddr() != b.NextFetchAddr() {
			t.Fatalf("fetch %d differs", i)
		}
	}
	// Different threads diverge.
	c := NewGen(p, 7, 4, 1)
	same := true
	for i := 0; i < 50; i++ {
		if a.Next() != c.Next() {
			same = false
			break
		}
	}
	if same {
		t.Error("different threads produced identical streams")
	}
}

func TestEventMixMatchesProfile(t *testing.T) {
	p := MustByName("fft")
	g := NewGen(p, 1, 0, 0)
	var loads, stores, instr, shared, mem uint64
	for instr < 2_000_000 {
		ev := g.Next()
		instr += ev.Gap
		switch ev.Type {
		case Load:
			loads++
			instr++
		case Store:
			stores++
			instr++
		}
		if ev.Type != Barrier {
			mem++
			if ev.Shared {
				shared++
			}
		}
	}
	memRatio := float64(mem) / float64(instr)
	// Phase MemScales average to roughly the base ratio.
	if memRatio < p.MemRatio*0.6 || memRatio > p.MemRatio*1.6 {
		t.Errorf("memory ratio = %.3f, want near %.3f", memRatio, p.MemRatio)
	}
	writeFrac := float64(stores) / float64(mem)
	if math.Abs(writeFrac-p.WriteFrac) > 0.05 {
		t.Errorf("write fraction = %.3f, want %.3f", writeFrac, p.WriteFrac)
	}
	shareFrac := float64(shared) / float64(mem)
	if math.Abs(shareFrac-p.ShareFrac) > 0.05 {
		t.Errorf("share fraction = %.3f, want %.3f", shareFrac, p.ShareFrac)
	}
}

func TestBarrierCadence(t *testing.T) {
	p := MustByName("ocean") // densest barriers
	g := NewGen(p, 2, 0, 0)
	var barriers uint64
	for g.Retired() < 1_000_000 {
		if g.Next().Type == Barrier {
			barriers++
		}
	}
	wantApprox := 1_000_000 / float64(p.BarrierInterval)
	got := float64(barriers)
	if got < wantApprox*0.6 || got > wantApprox*1.6 {
		t.Errorf("barriers = %v per 1M instr, want ~%v", got, wantApprox)
	}
	if g.Barriers() != barriers {
		t.Errorf("Barriers() = %d, want %d", g.Barriers(), barriers)
	}
}

func TestNoBarriersWhenIntervalZero(t *testing.T) {
	g := NewGen(MustByName("swaptions"), 3, 0, 0)
	for g.Retired() < 2_000_000 {
		if ev := g.Next(); ev.Type == Barrier {
			t.Fatal("swaptions (interval 0) emitted a barrier")
		}
	}
}

func TestAddressRegions(t *testing.T) {
	p := MustByName("raytrace")
	g := NewGen(p, 4, 2, 3)
	privWS := uint64(p.PrivateWSKB) * 1024
	sharedWS := uint64(p.SharedWSKB) * 1024
	for i := 0; i < 20000; i++ {
		ev := g.Next()
		if ev.Type == Barrier {
			if ev.Addr != BarrierAddr || !ev.Shared {
				t.Fatalf("barrier event = %+v", ev)
			}
			continue
		}
		if ev.Shared != IsShared(ev.Addr) {
			t.Fatalf("Shared flag inconsistent for %#x", ev.Addr)
		}
		if ev.Shared {
			off := ev.Addr &^ (sharedBase | uint64(3)<<28)
			if off >= sharedWS {
				t.Fatalf("shared offset %#x beyond working set", off)
			}
			if ev.Addr&(uint64(3)<<28) != uint64(3)<<28 {
				t.Fatalf("shared addr %#x not tagged with cluster 3", ev.Addr)
			}
		} else {
			off := ev.Addr &^ (privateBase | uint64(2)<<28)
			// The set-index stagger may push offsets up to 128 KB
			// beyond the raw working set.
			if off >= privWS+128*1024 {
				t.Fatalf("private offset %#x beyond staggered working set", off)
			}
		}
	}
}

func TestSharedHotRegionBias(t *testing.T) {
	p := MustByName("raytrace") // HotFrac 0.7
	g := NewGen(p, 5, 0, 0)
	var hot, shared int
	for i := 0; i < 100000; i++ {
		ev := g.Next()
		if ev.Type == Barrier || !ev.Shared {
			continue
		}
		shared++
		if ev.Addr&((1<<28)-1) < hotRegionBytes {
			hot++
		}
	}
	frac := float64(hot) / float64(shared)
	// HotFrac direct hits plus uniform accesses that land in the hot
	// range by chance.
	if frac < p.HotFrac*0.85 {
		t.Errorf("hot fraction = %.3f, want >= %.3f", frac, p.HotFrac*0.85)
	}
}

func TestPhaseCycling(t *testing.T) {
	p := MustByName("radix")
	g := NewGen(p, 6, 0, 0)
	seen := map[int]bool{}
	for g.Retired() < 300_000 {
		g.Next()
		seen[g.PhaseIndex()] = true
	}
	for i := range p.Phases {
		if !seen[i] {
			t.Errorf("phase %d never active", i)
		}
	}
	// ILP always reflects current phase.
	if ilp := g.ILP(); ilp != p.Phases[g.PhaseIndex()].ILP {
		t.Errorf("ILP = %v, want %v", ilp, p.Phases[g.PhaseIndex()].ILP)
	}
}

func TestFetchStreamWithinCode(t *testing.T) {
	p := MustByName("bodytrack")
	g := NewGen(p, 8, 0, 0)
	code := uint64(p.CodeKB) * 1024
	loop := uint64(innerLoopKB) * 1024
	var transfers int
	prev := g.NextFetchAddr()
	for i := 0; i < 10000; i++ {
		a := g.NextFetchAddr()
		if a < codeBase || a >= codeBase+code {
			t.Fatalf("fetch addr %#x outside code region", a)
		}
		if a%fetchBlockBytes != 0 {
			t.Fatalf("fetch addr %#x not block aligned", a)
		}
		po := prev - codeBase
		base := po / loop * loop
		if a-codeBase != base+(po-base+fetchBlockBytes)%loop {
			transfers++
		}
		prev = a
	}
	// ~0.2% region transfers: high icache locality.
	if transfers < 2 || transfers > 100 {
		t.Errorf("region transfers = %d over 10000 fetches, want ~20", transfers)
	}
}

func TestPrivateStreamIsCacheFriendly(t *testing.T) {
	// ~90% of private accesses fall in the 8KB hot set (for a
	// benchmark whose phases use the default streaming fraction).
	p := MustByName("swaptions")
	g := NewGen(p, 9, 0, 0)
	var hot, private int
	for i := 0; i < 100000; i++ {
		ev := g.Next()
		if ev.Type == Barrier || ev.Shared {
			continue
		}
		private++
		if ev.Addr&((1<<28)-1) < privateHotKB*1024 {
			hot++
		}
	}
	frac := float64(hot) / float64(private)
	if frac < 0.85 {
		t.Errorf("hot private fraction = %.3f, want >= 0.85", frac)
	}
}

func TestRetiredMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		g := NewGen(MustByName("lu"), seed, 0, 0)
		prev := uint64(0)
		for i := 0; i < 500; i++ {
			ev := g.Next()
			if g.Retired() < prev {
				return false
			}
			if ev.Type != Barrier && g.Retired() < prev+ev.Gap+1 {
				return false
			}
			prev = g.Retired()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestEventTypeString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" || Barrier.String() != "barrier" {
		t.Error("event type strings wrong")
	}
	if EventType(9).String() == "" {
		t.Error("unknown event type must stringify")
	}
}

func TestNewGenPanicsOnInvalidProfile(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for invalid profile")
		}
	}()
	NewGen(Profile{}, 1, 0, 0)
}

func TestBarrierImbalanceVariesArrival(t *testing.T) {
	// Two threads of an imbalanced benchmark should hit barrier 1 at
	// different instruction counts.
	p := MustByName("raytrace")
	counts := map[uint64]bool{}
	for thread := 0; thread < 6; thread++ {
		g := NewGen(p, 42, thread, 0)
		for {
			ev := g.Next()
			if ev.Type == Barrier {
				counts[g.Retired()] = true
				break
			}
		}
	}
	if len(counts) < 3 {
		t.Errorf("barrier arrivals too uniform across threads: %v", counts)
	}
}
