package experiments

import (
	"fmt"
	"strings"

	v1 "respin/internal/api/v1"
	"respin/internal/config"
	"respin/internal/report"
)

// Comparison is one headline paper-vs-measured row.
type Comparison struct {
	ID       string
	Metric   string
	Paper    string
	Measured string
}

// Suite holds the complete evaluation output.
type Suite struct {
	Sections    []string
	Comparisons []Comparison
}

// All runs the complete evaluation: every table and figure plus the
// paper-vs-measured summary. With the full Runner this takes tens of
// minutes on one core.
func (r *Runner) All() *Suite {
	// Enqueue the whole evaluation's run set up front: the worker pool
	// stays saturated across figure boundaries while the sections below
	// consume results in deterministic order.
	r.Prefetch(r.EvalRuns()...)
	s := &Suite{}
	add := func(sec string) { s.Sections = append(s.Sections, sec) }
	// interrupted truncates the evaluation after Ctx cancellation:
	// completed sections survive into a partial report.
	interrupted := func() bool {
		if r.Aborted() {
			add("[interrupted: evaluation truncated — only the sections above completed]")
			return true
		}
		return false
	}
	cmp := func(id, metric, paper string, format string, args ...any) {
		s.Comparisons = append(s.Comparisons, Comparison{
			ID: id, Metric: metric, Paper: paper, Measured: fmt.Sprintf(format, args...),
		})
	}

	// Static / analytic artifacts.
	f1 := Figure1()
	add(f1.Render())
	cmp("fig1", "NT leakage share of chip power", "~75%", "%.0f%%", 100*f1.NearThreshold.LeakFraction())
	cmp("fig1", "NT cache share of leakage", "~50%", "%.0f%%", 100*f1.NearThreshold.CacheLeakShareOfLeak())
	cmp("fig1", "nominal dynamic share", "~60%", "%.0f%%", 100*(1-f1.Nominal.LeakFraction()))
	add(Floorplan())
	add(TableI())
	add(TableIII())
	add(TableIV())

	// Area proportioning (Section IV).
	area := AreaStudy()
	add(area.Render())
	cmp("area", "cache share of chip area, medium", "~25%", "%.0f%%", 100*area.Share(config.Medium))
	cmp("area", "cache share of chip area, large", "~50%", "%.0f%%", 100*area.Share(config.Large))

	// The reliability rationale for the dual rails (Section I).
	vm := VminStudy()
	add(vm.Render())
	cmp("rails", "0.65V rail safe for all SRAM arrays (SECDED)", "yes (paper's premise)",
		"%v", vm.RailIsSafe())
	cmp("rails", "0.4V SRAM unusable even with SECDED", "yes (paper's premise)",
		"%v", vm.NTIsUnusable())

	// Variation heterogeneity (methodology, Section IV).
	vs := VariationStudy()
	add(vs.Render())
	cmp("variation", "fmax spread at default sigma", "~2x (\"almost twice\")", "%.2fx", vs.Rows[2].SpreadRatio)

	// Workload characterisation (methodology).
	add(r.WorkloadTable().Render())

	if interrupted() {
		return s
	}

	// Power (Figure 6).
	f6 := r.Figure6()
	add(f6.Render())
	cmp("fig6", "SH-STT power reduction, small", "2.1%", "%.1f%%", 100*f6.Reduction(config.Small))
	cmp("fig6", "SH-STT power reduction, medium", "12.9%", "%.1f%%", 100*f6.Reduction(config.Medium))
	cmp("fig6", "SH-STT power reduction, large", "22.1%", "%.1f%%", 100*f6.Reduction(config.Large))

	if interrupted() {
		return s
	}

	// Performance (Figure 7).
	f7 := r.Figure7()
	add(f7.Render())
	cmp("fig7", "SH-STT execution time vs baseline", "0.89 (11% faster)", "%.3f", f7.Mean(config.SHSTT))
	cmp("fig7", "SH-STT vs SH-SRAM-Nom speed edge", "~1.2% faster", "%.1f%% faster",
		100*(1-f7.Mean(config.SHSTT)/f7.Mean(config.SHSRAMNom)))

	if interrupted() {
		return s
	}

	// Energy by scale (Figure 8).
	f8 := r.Figure8()
	add(f8.Render())
	cmp("fig8", "SH-STT energy, small/medium/large", "0.87 / ~0.77 / 0.69",
		"%.2f / %.2f / %.2f",
		f8.Normalized[config.Small][config.SHSTT],
		f8.Normalized[config.Medium][config.SHSTT],
		f8.Normalized[config.Large][config.SHSTT])

	if interrupted() {
		return s
	}

	// Energy per benchmark (Figure 9).
	f9 := r.Figure9()
	add(f9.Render())
	cmp("fig9", "SH-STT energy", "0.77", "%.2f", f9.Mean(config.SHSTT))
	cmp("fig9", "SH-SRAM-Nom energy", "1.12", "%.2f", f9.Mean(config.SHSRAMNom))
	cmp("fig9", "HP-SRAM-CMP energy", "1.40", "%.2f", f9.Mean(config.HPSRAMCMP))
	cmp("fig9", "SH-STT-CC energy", "0.67", "%.2f", f9.Mean(config.SHSTTCC))
	cmp("fig9", "SH-STT-CC-Oracle energy", "0.64", "%.2f", f9.Mean(config.SHSTTCCOracle))
	cmp("fig9", "PR-STT-CC energy", "0.76", "%.2f", f9.Mean(config.PRSTTCC))
	cmp("fig9", "SH-STT-CC-OS vs SH-STT", "+27%", "%+.0f%%",
		100*(f9.Mean(config.SHSTTCCOS)/f9.Mean(config.SHSTT)-1))

	if interrupted() {
		return s
	}

	// Cluster-size sweep (Section V.D).
	sweep := r.ClusterSweep()
	add(sweep.Render())
	cmp("tabV-D", "optimal cluster size", "16", "%d", sweep.Best())
	for _, row := range sweep.Rows {
		cmp("tabV-D", fmt.Sprintf("time improvement at %d cores/cluster", row.ClusterSize),
			map[int]string{4: "~5%", 8: "5-11%", 16: "11%", 32: "2.5%"}[row.ClusterSize],
			"%.1f%%", 100*row.SpeedupVsBase)
	}

	if interrupted() {
		return s
	}

	// Shared-cache behaviour (Figures 10 and 11).
	f10 := r.Figure10()
	add(f10.Render())
	cmp("fig10", "cache cycles with no request", "49%", "%.0f%%", 100*f10.Mean.Fraction(0))
	f11 := r.Figure11()
	add(f11.Render())
	cmp("fig11", "reads serviced in 1 core cycle", "95.8%", "%.1f%%", 100*f11.OneCycleFraction())
	cmp("fig11", "half-miss rate", "~4%", "%.1f%%", 100*f11.HalfMissRate)

	if interrupted() {
		return s
	}

	// Consolidation traces (Figures 12 and 13).
	for _, bench := range []string{"radix", "lu"} {
		if !contains(r.Benches, bench) {
			continue
		}
		tr := r.ConsolidationTrace(bench)
		add(tr.Render())
		if bench == "radix" {
			cmp("fig12", "radix energy saving, greedy vs oracle", "48% / 50%",
				"%.0f%% / %.0f%%", 100*tr.GreedySaving, 100*tr.OracleSaving)
		} else {
			cmp("fig13", "lu energy saving, greedy vs oracle", "29% / 38%",
				"%.0f%% / %.0f%%", 100*tr.GreedySaving, 100*tr.OracleSaving)
		}
	}

	if interrupted() {
		return s
	}

	// Active cores (Figure 14).
	f14 := r.Figure14()
	add(f14.Render())
	cmp("fig14", "mean active cores per 16-core cluster", "~10", "%.1f", f14.MeanActive())

	return s
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Report renders the full evaluation with the comparison summary first.
func (s *Suite) Report() string {
	var b strings.Builder
	t := report.NewTable("Paper vs measured (shape comparison)", "artifact", "metric", "paper", "measured")
	for _, c := range s.Comparisons {
		t.AddRow(c.ID, c.Metric, c.Paper, c.Measured)
	}
	b.WriteString(t.String())
	b.WriteByte('\n')
	for _, sec := range s.Sections {
		b.WriteString(sec)
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON serialises the comparison summary (for machine consumption; the
// sections remain human-oriented text) in the versioned v1 envelope and
// canonical encoding shared with every other machine-readable surface.
func (s *Suite) JSON() ([]byte, error) {
	return v1.EncodeBytes(struct {
		SchemaVersion string       `json:"schema_version"`
		Comparisons   []Comparison `json:"comparisons"`
		Sections      []string     `json:"sections"`
	}{v1.SchemaVersion, s.Comparisons, s.Sections})
}
