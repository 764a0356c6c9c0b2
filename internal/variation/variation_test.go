package variation

import (
	"math"
	"testing"
	"testing/quick"

	"respin/internal/config"
)

func genNT(seed int64) *Map {
	return Generate(seed, 8, 8, config.CoreNTVdd, DefaultParams())
}

func TestDeterministic(t *testing.T) {
	a := genNT(42)
	b := genNT(42)
	for i := range a.Cores {
		if a.Cores[i] != b.Cores[i] {
			t.Fatalf("core %d differs across identical seeds: %+v vs %+v", i, a.Cores[i], b.Cores[i])
		}
	}
	c := genNT(43)
	same := true
	for i := range a.Cores {
		if a.Cores[i] != c.Cores[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical maps")
	}
}

func TestMultiplesInPaperRange(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		m := genNT(seed)
		for i, c := range m.Cores {
			if c.Multiple < config.MinCoreMultiple || c.Multiple > config.MaxCoreMultiple {
				t.Fatalf("seed %d core %d multiple %d outside [%d,%d]",
					seed, i, c.Multiple, config.MinCoreMultiple, config.MaxCoreMultiple)
			}
			if c.PeriodPS != int64(c.Multiple)*config.CachePeriodPS {
				t.Fatalf("period %d != multiple %d * cache period", c.PeriodPS, c.Multiple)
			}
		}
	}
}

func TestAllThreeMultiplesOccur(t *testing.T) {
	// Across a handful of dies, all of 1.6/2.0/2.4 ns should appear, and
	// no single multiple should monopolise the die population.
	total := map[int]int{}
	for seed := int64(1); seed <= 10; seed++ {
		for k, v := range genNT(seed).MultipleCounts() {
			total[k] += v
		}
	}
	for _, mult := range []int{4, 5, 6} {
		if total[mult] == 0 {
			t.Errorf("multiple %d never occurs across 10 dies: %v", mult, total)
		}
	}
	n := total[4] + total[5] + total[6]
	for mult, c := range total {
		if float64(c) > 0.9*float64(n) {
			t.Errorf("multiple %d dominates with %d/%d cores", mult, c, n)
		}
	}
}

func TestSpreadRatioNearTwo(t *testing.T) {
	// "fast cores are almost twice as fast as slow ones" — accept a
	// generous band around 2x for the raw (pre-quantisation) spread.
	var sum float64
	n := 0
	for seed := int64(1); seed <= 20; seed++ {
		sum += genNT(seed).SpreadRatio()
		n++
	}
	avg := sum / float64(n)
	if avg < 1.4 || avg > 2.8 {
		t.Errorf("mean fmax spread = %.2f, want ~2x", avg)
	}
}

func TestMeanPeriodNearHalfGHz(t *testing.T) {
	// The paper repeatedly refers to "a core running at 500MHz" as
	// typical; the mean quantised period should be near 2.0 ns.
	var sum float64
	var n int
	for seed := int64(1); seed <= 20; seed++ {
		for _, c := range genNT(seed).Cores {
			sum += float64(c.PeriodPS)
			n++
		}
	}
	mean := sum / float64(n)
	if mean < 1700 || mean > 2300 {
		t.Errorf("mean core period = %.0f ps, want ~2000", mean)
	}
}

func TestFrequencyGHz(t *testing.T) {
	c := CoreSpec{Multiple: 5, PeriodPS: 2000}
	if got := c.FrequencyGHz(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("FrequencyGHz = %v, want 0.5", got)
	}
}

func TestClusterCores(t *testing.T) {
	m := genNT(7)
	cl := m.ClusterCores(2, 16)
	if len(cl) != 16 {
		t.Fatalf("cluster size = %d, want 16", len(cl))
	}
	if cl[0] != m.Cores[32] || cl[15] != m.Cores[47] {
		t.Error("cluster slice does not cover cores [32,48)")
	}
}

func TestVthClamped(t *testing.T) {
	// Even with absurd sigma, every core must stay usable (Vth < Vdd).
	p := DefaultParams()
	p.SigmaRandom = 0.5
	m := Generate(1, 8, 8, config.CoreNTVdd, p)
	for i, c := range m.Cores {
		if c.Vth >= config.CoreNTVdd {
			t.Errorf("core %d Vth %.3f >= Vdd", i, c.Vth)
		}
		if c.FmaxGHz <= 0 {
			t.Errorf("core %d fmax %.3f not positive", i, c.FmaxGHz)
		}
	}
}

func TestSystematicCorrelation(t *testing.T) {
	// Neighbouring cores share the systematic component, so the mean
	// |Vth difference| between adjacent cores should be well below that
	// between random core pairs across many dies.
	p := DefaultParams()
	p.SigmaRandom = 0.001 // isolate the systematic part
	var adj, far float64
	var nAdj, nFar int
	for seed := int64(1); seed <= 10; seed++ {
		m := Generate(seed, 8, 8, config.CoreNTVdd, p)
		at := func(r, c int) float64 { return m.Cores[r*8+c].Vth }
		for r := 0; r < 8; r++ {
			for c := 0; c+1 < 8; c++ {
				adj += math.Abs(at(r, c) - at(r, c+1))
				nAdj++
			}
		}
		far += math.Abs(at(0, 0) - at(7, 7))
		far += math.Abs(at(0, 7) - at(7, 0))
		nFar += 2
	}
	meanAdj, meanFar := adj/float64(nAdj), far/float64(nFar)
	if meanAdj >= meanFar {
		t.Errorf("adjacent Vth delta %.5f not below far delta %.5f — no spatial correlation", meanAdj, meanFar)
	}
}

func TestGeneratePanicsOnBadDie(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero-row die")
		}
	}()
	Generate(1, 0, 8, config.CoreNTVdd, DefaultParams())
}

func TestZeroCorrelationCellsRescued(t *testing.T) {
	p := DefaultParams()
	p.CorrelationCells = 0
	m := Generate(3, 4, 4, config.CoreNTVdd, p)
	if len(m.Cores) != 16 {
		t.Fatalf("len = %d, want 16", len(m.Cores))
	}
}

// Property: any seed yields a full map of valid cores.
func TestGenerateProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := genNT(seed)
		if len(m.Cores) != 64 {
			return false
		}
		for _, c := range m.Cores {
			if c.Multiple < 4 || c.Multiple > 6 || c.FmaxGHz <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpreadRatioEmptyAndZero(t *testing.T) {
	var m Map
	if got := m.SpreadRatio(); got != 0 {
		t.Errorf("empty SpreadRatio = %v, want 0", got)
	}
	m2 := Map{Cores: []CoreSpec{{FmaxGHz: 0}}}
	if !math.IsInf(m2.SpreadRatio(), 1) {
		t.Error("zero-fmax SpreadRatio should be +Inf")
	}
}

func TestDieMap(t *testing.T) {
	m := genNT(1)
	s := m.DieMap(16)
	lines := 0
	for _, ch := range s {
		if ch == '\n' {
			lines++
		}
	}
	if lines != 11 {
		t.Fatalf("die map lines = %d, want 11 (8 rows + 3 cluster separators)", lines)
	}
	for _, ch := range s {
		if ch >= '0' && ch <= '9' {
			if ch < '4' || ch > '6' {
				t.Fatalf("die map contains multiple %c outside 4-6", ch)
			}
		}
	}
}
