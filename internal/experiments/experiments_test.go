package experiments

import (
	"strings"
	"sync"
	"testing"

	"respin/internal/config"
)

// tinyRunner is the smallest useful runner for unit tests.
func tinyRunner() *Runner {
	r := QuickRunner()
	r.Benches = []string{"fft", "radix"}
	r.Quota = 20_000
	r.TraceQuota = 60_000
	return r
}

// shapeRunner is the one tinyRunner the *Shape tests share, built on
// first use: the runs they have in common simulate once and the
// runner's cache serves the rest. It runs 8 wide, so
// TestParallelRunnerMatchesSerial compares it against a serial runner.
// Tests that change a runner's settings or count its runs build their
// own.
var shapeRunner = sync.OnceValue(func() *Runner {
	r := tinyRunner()
	r.Jobs = 8
	return r
})

func TestFigure1Shape(t *testing.T) {
	f := Figure1()
	if lf := f.NearThreshold.LeakFraction(); lf < 0.65 {
		t.Errorf("NT leakage share = %.2f, want dominant (~0.75)", lf)
	}
	if lf := f.Nominal.LeakFraction(); lf > 0.5 {
		t.Errorf("nominal leakage share = %.2f, want minority (~0.40)", lf)
	}
	if s := f.Render(); !strings.Contains(s, "Figure 1") {
		t.Error("render missing title")
	}
}

func TestStaticTables(t *testing.T) {
	for name, s := range map[string]string{
		"TableI": TableI(), "TableIII": TableIII(), "TableIV": TableIV(),
	} {
		if len(s) < 100 {
			t.Errorf("%s suspiciously short: %q", name, s)
		}
	}
	if !strings.Contains(TableIII(), "STT-RAM") {
		t.Error("Table III missing STT-RAM row")
	}
	if !strings.Contains(TableIV(), "SH-STT-CC-Oracle") {
		t.Error("Table IV missing oracle config")
	}
}

func TestFigure6And8ShareRunsAndShape(t *testing.T) {
	r := shapeRunner()
	f6 := r.Figure6()
	if len(f6.Rows) != 9 {
		t.Fatalf("Figure 6 rows = %d, want 9 (3 scales x 3 configs)", len(f6.Rows))
	}
	// Savings grow with cache scale.
	if !(f6.Reduction(config.Small) < f6.Reduction(config.Large)) {
		t.Errorf("power savings not increasing with scale: small %.3f, large %.3f",
			f6.Reduction(config.Small), f6.Reduction(config.Large))
	}
	if f6.Reduction(config.Medium) <= 0 {
		t.Error("SH-STT must reduce power at medium scale")
	}
	// SH-SRAM-Nom must cost more power than SH-STT everywhere.
	byKey := map[string]Figure6Row{}
	for _, row := range f6.Rows {
		byKey[row.Scale.String()+row.Kind.String()] = row
	}
	for _, scale := range []config.CacheScale{config.Small, config.Medium, config.Large} {
		stt := byKey[scale.String()+config.SHSTT.String()]
		sram := byKey[scale.String()+config.SHSRAMNom.String()]
		if sram.TotalW <= stt.TotalW {
			t.Errorf("%v: SH-SRAM-Nom power %.2f not above SH-STT %.2f", scale, sram.TotalW, stt.TotalW)
		}
	}

	f8 := r.Figure8()
	if f8.Normalized[config.Medium][config.SHSTT] >= 1 {
		t.Error("SH-STT must save energy at medium scale")
	}
	if f8.Normalized[config.Medium][config.SHSRAMNom] <= 1 {
		t.Error("SH-SRAM-Nom must cost energy vs the NT baseline")
	}
	if !strings.Contains(f6.Render(), "SH-STT") || !strings.Contains(f8.Render(), "medium") {
		t.Error("render incomplete")
	}
}

func TestFigure7Shape(t *testing.T) {
	r := shapeRunner()
	f7 := r.Figure7()
	if m := f7.Mean(config.SHSTT); m >= 1 {
		t.Errorf("SH-STT normalised time = %.3f, want < 1", m)
	}
	if m := f7.Mean(config.HPSRAMCMP); m >= f7.Mean(config.SHSTT) {
		t.Errorf("HP must be the fastest config (%.3f vs %.3f)", m, f7.Mean(config.SHSTT))
	}
	if len(f7.Normalized[config.SHSTT]) != len(r.Benches) {
		t.Error("missing per-benchmark values")
	}
	if !strings.Contains(f7.Render(), "geomean") {
		t.Error("render missing mean row")
	}
}

func TestFigure9Shape(t *testing.T) {
	r := shapeRunner()
	f9 := r.Figure9()
	stt := f9.Mean(config.SHSTT)
	if stt >= 1 {
		t.Errorf("SH-STT energy = %.3f, want < 1", stt)
	}
	if hp := f9.Mean(config.HPSRAMCMP); hp <= 1 {
		t.Errorf("HP energy = %.3f, want > 1", hp)
	}
	if nom := f9.Mean(config.SHSRAMNom); nom <= 1 {
		t.Errorf("SH-SRAM-Nom energy = %.3f, want > 1", nom)
	}
	// At tiny test quotas the 0.125 ms OS interval may never fire, in
	// which case OS-mode degenerates to SH-STT; it must never be
	// cheaper.
	if os := f9.Mean(config.SHSTTCCOS); os < stt*0.999 {
		t.Errorf("OS consolidation (%.3f) cheaper than SH-STT (%.3f)", os, stt)
	}
	if !strings.Contains(f9.Render(), "SH-STT-CC") {
		t.Error("render incomplete")
	}
}

func TestClusterSweepShape(t *testing.T) {
	r := shapeRunner()
	sweep := r.ClusterSweep()
	if len(sweep.Rows) != 4 {
		t.Fatalf("sweep rows = %d, want 4", len(sweep.Rows))
	}
	best := sweep.Best()
	if best != 8 && best != 16 {
		t.Errorf("optimal cluster size = %d, want 8 or 16 (paper: 16)", best)
	}
	// 32-core clusters must be clearly worse than the optimum.
	var at16, at32 float64
	for _, row := range sweep.Rows {
		if row.ClusterSize == 16 {
			at16 = row.SpeedupVsBase
		}
		if row.ClusterSize == 32 {
			at32 = row.SpeedupVsBase
		}
	}
	if at32 >= at16 {
		t.Errorf("32-core cluster improvement %.3f not below 16-core %.3f", at32, at16)
	}
	if !strings.Contains(sweep.Render(), "cores/cluster") {
		t.Error("render incomplete")
	}
}

func TestFigure10And11Shape(t *testing.T) {
	r := shapeRunner()
	f10 := r.Figure10()
	if f10.Mean.Total() == 0 {
		t.Fatal("no arrival observations")
	}
	idle := f10.Mean.Fraction(0)
	if idle < 0.2 || idle > 0.9 {
		t.Errorf("idle cache cycles = %.2f, want a plurality (~0.5)", idle)
	}
	f11 := r.Figure11()
	if one := f11.OneCycleFraction(); one < 0.75 {
		t.Errorf("1-core-cycle reads = %.2f, want the vast majority", one)
	}
	if f11.HalfMissRate <= 0 || f11.HalfMissRate > 0.25 {
		t.Errorf("half-miss rate = %.3f, want small but non-zero", f11.HalfMissRate)
	}
	if !strings.Contains(f10.Render(), "request") || !strings.Contains(f11.Render(), "core cycle") {
		t.Error("render incomplete")
	}
}

func TestConsolidationTraceShape(t *testing.T) {
	r := shapeRunner()
	tr := r.ConsolidationTrace("radix")
	if tr.Greedy.Len() == 0 || tr.Oracle.Len() == 0 {
		t.Fatal("empty traces")
	}
	if tr.GreedySaving <= 0 {
		t.Errorf("greedy saving = %.3f vs PR-SRAM-NT, want positive", tr.GreedySaving)
	}
	if tr.OracleSaving < tr.GreedySaving-0.05 {
		t.Errorf("oracle saving %.3f clearly below greedy %.3f", tr.OracleSaving, tr.GreedySaving)
	}
	if !strings.Contains(tr.Render(), "radix") {
		t.Error("render incomplete")
	}
}

func TestFigure14Shape(t *testing.T) {
	r := shapeRunner()
	f14 := r.Figure14()
	if len(f14.Rows) != len(r.Benches) {
		t.Fatalf("rows = %d, want %d", len(f14.Rows), len(r.Benches))
	}
	mean := f14.MeanActive()
	if mean <= 4 || mean > 16 {
		t.Errorf("mean active = %.1f, want within (4,16]", mean)
	}
	for _, row := range f14.Rows {
		if row.Min < 4 || row.Max > 16 || row.Min > row.Max {
			t.Errorf("%s: min/max %v/%v out of range", row.Bench, row.Min, row.Max)
		}
	}
	if !strings.Contains(f14.Render(), "average") {
		t.Error("render incomplete")
	}
}

func TestRunnerCaches(t *testing.T) {
	r := tinyRunner()
	a := r.medium(config.SHSTT, "fft")
	b := r.medium(config.SHSTT, "fft")
	if a.Cycles != b.Cycles || a.EnergyPJ != b.EnergyPJ {
		t.Error("cache returned different results")
	}
	if r.RunsStarted() != 1 || r.CacheHits() != 1 {
		t.Errorf("%d runs started and %d cache hits for one point asked twice, want 1 and 1", r.RunsStarted(), r.CacheHits())
	}
}

// TestSuiteReport checks the report of the quick reproduction that
// TestClaims gates: the paper-vs-measured table holds the rows All
// measured, each once and in claimTable order, and every section
// follows it.
func TestSuiteReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a quick reproduction")
	}
	s, _ := quickReproduction()
	rep := s.Report()
	for _, want := range []string{"Paper vs measured", "Figure 6", "Figure 9", "Figure 14", "cluster-size sweep"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
	for _, sec := range s.Sections {
		if !strings.Contains(rep, sec) {
			t.Errorf("report missing section %.40q", sec)
		}
	}
	order := make(map[string]int, len(claimTable))
	for i, c := range claimTable {
		order[c.Metric] = i
	}
	last := -1
	for _, c := range s.Claims {
		i, ok := order[c.Metric]
		if !ok || i <= last {
			t.Errorf("%s %q out of claimTable order", c.Artifact, c.Metric)
		}
		last = i
		if !strings.Contains(rep, c.Measured()) {
			t.Errorf("%s %q: %q missing from the report", c.Artifact, c.Metric, c.Measured())
		}
	}
}

func TestVminStudy(t *testing.T) {
	v := VminStudy()
	if len(v.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 (4 arrays x 3 schemes)", len(v.Rows))
	}
	if !v.RailIsSafe() {
		t.Error("0.65V rail must be safe with SECDED (the baseline depends on it)")
	}
	if !v.NTIsUnusable() {
		t.Error("0.4V SRAM must be unusable (the paper's premise)")
	}
	if !strings.Contains(v.Render(), "Vmin") {
		t.Error("render incomplete")
	}
}

func TestVariationStudy(t *testing.T) {
	v := VariationStudy()
	if len(v.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(v.Rows))
	}
	// Spread grows with sigma.
	for i := 1; i < len(v.Rows); i++ {
		if v.Rows[i].SpreadRatio <= v.Rows[i-1].SpreadRatio {
			t.Errorf("spread not increasing: %.2f then %.2f",
				v.Rows[i-1].SpreadRatio, v.Rows[i].SpreadRatio)
		}
	}
	// Default sigma (8 mV) lands near the paper's "almost twice".
	if r := v.Rows[2]; r.SpreadRatio < 1.5 || r.SpreadRatio > 2.8 {
		t.Errorf("default-sigma spread = %.2f, want ~2", r.SpreadRatio)
	}
	for _, r := range v.Rows {
		sum := r.Share4x + r.Share5x + r.Share6x
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("shares sum to %.3f", sum)
		}
	}
	if !strings.Contains(v.Render(), "sigma") {
		t.Error("render incomplete")
	}
}

func TestSuiteJSON(t *testing.T) {
	s := &Suite{
		Claims:   []Claim{claim("SH-STT energy", 0.76)},
		Sections: []string{"sec"},
	}
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"claims"`, `"sections"`, `"values": [`, `"bands"`, `"lo": 0.72`, `"format": "%.2f"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON missing %q:\n%s", want, data)
		}
	}
}

func TestAreaStudy(t *testing.T) {
	a := AreaStudy()
	if len(a.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(a.Rows))
	}
	med, large := a.Share(config.Medium), a.Share(config.Large)
	if med < 0.18 || med > 0.32 {
		t.Errorf("medium cache share = %.2f, want ~0.25 (Section IV)", med)
	}
	// Table I's doubling yields ~40% at large (see area.go's note on
	// the paper's internal tension around "approximately 50%").
	if large < 0.35 || large > 0.55 {
		t.Errorf("large cache share = %.2f, want 0.35-0.55 (Section IV, loosely)", large)
	}
	// STT-RAM hierarchy is much smaller than SRAM at equal capacity.
	var sttMed, sramMed float64
	for _, r := range a.Rows {
		if r.Scale == config.Medium {
			if r.Tech == config.STTRAM {
				sttMed = r.CacheMM2
			} else {
				sramMed = r.CacheMM2
			}
		}
	}
	if sramMed/sttMed < 3 {
		t.Errorf("SRAM/STT area ratio = %.1f, want >3 (density advantage)", sramMed/sttMed)
	}
	if !strings.Contains(a.Render(), "cache share") {
		t.Error("render incomplete")
	}
}

func TestFloorplan(t *testing.T) {
	s := Floorplan()
	for _, want := range []string{"cluster 0", "cluster 3", "shared L3", "L1I", "NT rail"} {
		if !strings.Contains(s, want) {
			t.Errorf("floorplan missing %q", want)
		}
	}
}

func TestWorkloadTable(t *testing.T) {
	r := shapeRunner()
	w := r.WorkloadTable()
	if len(w.Rows) != len(r.Benches) {
		t.Fatalf("rows = %d, want %d", len(w.Rows), len(r.Benches))
	}
	for _, row := range w.Rows {
		if row.ChipIPC <= 0 || row.L1DMissRate <= 0 || row.L1DMissRate > 0.6 {
			t.Errorf("%s: implausible IPC %.2f / miss %.3f", row.Bench, row.ChipIPC, row.L1DMissRate)
		}
	}
	if !strings.Contains(w.Render(), "chip IPC") {
		t.Error("render incomplete")
	}
}
