package reliability

import (
	"math"
	"testing"
	"testing/quick"

	"respin/internal/config"
)

func TestCellFailAnchors(t *testing.T) {
	if got := CellFailProb(config.SRAM, 1.0); math.Abs(math.Log10(got)+9) > 0.01 {
		t.Errorf("pfail(1.0V) = %g, want 1e-9", got)
	}
	if got := CellFailProb(config.SRAM, 0.4); math.Abs(math.Log10(got)+4) > 0.15 {
		t.Errorf("pfail(0.4V) = %g, want ~1e-4", got)
	}
	// Monotone in voltage.
	prev := CellFailProb(config.SRAM, 0.35)
	for v := 0.40; v <= 1.0; v += 0.05 {
		p := CellFailProb(config.SRAM, v)
		if p >= prev {
			t.Errorf("pfail not decreasing at %.2fV: %g >= %g", v, p, prev)
		}
		prev = p
	}
}

func TestSTTImmune(t *testing.T) {
	for _, v := range []float64{0.35, 0.5, 1.0} {
		if CellFailProb(config.STTRAM, v) != 0 {
			t.Errorf("STT-RAM cell failure at %.2fV must be 0", v)
		}
		if y := CacheYield(config.STTRAM, 48<<20, v, NoECC); y != 1 {
			t.Errorf("STT-RAM yield at %.2fV = %v, want 1", v, y)
		}
	}
	if MinSafeVdd(config.STTRAM, 48<<20, NoECC, 0.99) > 0.35 {
		t.Error("STT-RAM must be usable at any supply")
	}
}

func TestECCProperties(t *testing.T) {
	for _, e := range []ECC{NoECC, Parity, SECDED, DECTED} {
		if e.String() == "" {
			t.Error("empty scheme name")
		}
		if e.CheckBits() < 0 || e.AreaOverhead() < 0 {
			t.Error("negative overhead")
		}
	}
	if SECDED.CheckBits() != 8 || SECDED.AreaOverhead() != 0.125 {
		t.Errorf("SECDED overhead wrong: %d bits", SECDED.CheckBits())
	}
	if !(NoECC.LatencyOverheadPS() < Parity.LatencyOverheadPS() &&
		Parity.LatencyOverheadPS() < SECDED.LatencyOverheadPS() &&
		SECDED.LatencyOverheadPS() < DECTED.LatencyOverheadPS()) {
		t.Error("latency overhead not increasing with strength")
	}
	if ECC(99).String() == "" {
		t.Error("unknown scheme must stringify")
	}
}

func TestWordFailProb(t *testing.T) {
	// Stronger schemes always help.
	p := 1e-4
	none := WordFailProb(NoECC, p)
	sec := WordFailProb(SECDED, p)
	dec := WordFailProb(DECTED, p)
	if !(dec < sec && sec < none) {
		t.Errorf("ordering broken: none %g, secded %g, dected %g", none, sec, dec)
	}
	// Parity detects but does not correct: word is still unusable if
	// any bit failed (slightly worse than none due to the extra bit).
	par := WordFailProb(Parity, p)
	if par < none {
		t.Errorf("parity %g below no-ECC %g: parity cannot repair", par, none)
	}
	// Degenerate inputs.
	if WordFailProb(SECDED, 0) != 0 || WordFailProb(SECDED, 1) != 1 {
		t.Error("degenerate probabilities wrong")
	}
	// SECDED word-fail for small p is ~ C(72,2) p^2.
	small := 1e-7
	want := binom(72, 2) * small * small
	got := WordFailProb(SECDED, small)
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("SECDED small-p approx: got %g, want ~%g", got, want)
	}
}

func TestBinom(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{{72, 0, 1}, {72, 1, 72}, {72, 2, 2556}, {5, 3, 10}}
	for _, c := range cases {
		if got := binom(c.n, c.k); got != c.want {
			t.Errorf("binom(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

// TestPaperRailStory verifies the quantitative story behind the paper's
// design choices:
//   - a 16 KB SRAM L1 at the NT core voltage (0.4 V) is unusable even
//     with SECDED;
//   - the same cache at the baseline's 0.65 V rail is fine with modest
//     protection;
//   - megabyte-class L2/L3 arrays need the higher rail even more.
func TestPaperRailStory(t *testing.T) {
	usable := func(capacity int, vdd float64, e ECC) bool {
		return CacheYield(config.SRAM, capacity, vdd, e) >= DefaultTargetYield
	}
	l1 := 16 << 10
	if usable(l1, 0.40, SECDED) {
		t.Errorf("16KB SRAM @0.4V with SECDED usable (yield %.4f) — contradicts the paper", CacheYield(config.SRAM, l1, 0.40, SECDED))
	}
	if !usable(l1, 0.65, SECDED) {
		t.Errorf("16KB SRAM @0.65V with SECDED unusable (yield %.4f) — baseline would be broken", CacheYield(config.SRAM, l1, 0.65, SECDED))
	}
	l2 := 16 << 20
	if usable(l2, 0.40, DECTED) {
		t.Errorf("16MB SRAM @0.4V usable even with DECTED (yield %.4f)", CacheYield(config.SRAM, l2, 0.40, DECTED))
	}
	if !usable(l2, 0.65, SECDED) {
		t.Errorf("16MB SRAM @0.65V with SECDED unusable (yield %.4f)", CacheYield(config.SRAM, l2, 0.65, SECDED))
	}
}

func TestMinSafeVdd(t *testing.T) {
	// Stronger ECC lowers the safe rail; bigger arrays raise it.
	l1 := 16 << 10
	vNone := MinSafeVdd(config.SRAM, l1, NoECC, 0.99)
	vSec := MinSafeVdd(config.SRAM, l1, SECDED, 0.99)
	vDec := MinSafeVdd(config.SRAM, l1, DECTED, 0.99)
	if !(vDec < vSec && vSec < vNone) {
		t.Errorf("Vmin ordering broken: none %.2f, secded %.2f, dected %.2f", vNone, vSec, vDec)
	}
	big := MinSafeVdd(config.SRAM, 48<<20, SECDED, 0.99)
	if big <= vSec {
		t.Errorf("48MB Vmin %.2f not above 16KB Vmin %.2f", big, vSec)
	}
	// The baseline's 0.65 V rail must clear every SRAM array in the
	// medium hierarchy with SECDED — that is why the paper picked it.
	for _, capacity := range []int{16 << 10, 16 << 20, 48 << 20} {
		if v := MinSafeVdd(config.SRAM, capacity, SECDED, 0.99); v > 0.65 {
			t.Errorf("%dKB needs %.2fV with SECDED, above the 0.65V rail", capacity>>10, v)
		}
	}
}

// Property: yield is monotone in voltage and in ECC strength.
func TestYieldMonotoneProperty(t *testing.T) {
	f := func(rawV uint8, rawCap uint16) bool {
		v := 0.40 + float64(rawV%56)/100 // 0.40..0.95
		capacity := (int(rawCap)%1024 + 1) * 1024
		y1 := CacheYield(config.SRAM, capacity, v, SECDED)
		y2 := CacheYield(config.SRAM, capacity, v+0.05, SECDED)
		if y2 < y1-1e-12 {
			return false
		}
		yn := CacheYield(config.SRAM, capacity, v, NoECC)
		return y1 >= yn-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOverheadAccessors(t *testing.T) {
	if NoECC.EnergyOverheadFrac() != 0 || NoECC.AreaOverhead() != 0 {
		t.Error("no-ECC overheads must be zero")
	}
	if !(Parity.EnergyOverheadFrac() < SECDED.EnergyOverheadFrac() &&
		SECDED.EnergyOverheadFrac() < DECTED.EnergyOverheadFrac()) {
		t.Error("energy overhead not increasing with strength")
	}
}

func TestMinSafeVddUnreachable(t *testing.T) {
	// An absurd yield bar is unreachable even at nominal voltage.
	if v := MinSafeVdd(config.SRAM, 1<<30, NoECC, 1.0); !math.IsInf(v, 1) {
		t.Errorf("impossible target returned %.2f, want +Inf", v)
	}
}

func TestWordFailProbParityWorstCase(t *testing.T) {
	// At pCell = 1 every scheme fails.
	for _, e := range []ECC{NoECC, Parity, SECDED, DECTED} {
		if WordFailProb(e, 1) != 1 {
			t.Errorf("%v at pCell=1 should fail certainly", e)
		}
	}
}
