package experiments

import (
	"fmt"
	"strings"

	"respin/internal/config"
	"respin/internal/report"
	"respin/internal/stats"
)

// TraceResult is a Figures 12/13 style consolidation trace comparison.
type TraceResult struct {
	Bench          string
	Greedy, Oracle stats.TimeSeries
	// GreedySaving and OracleSaving are energy reductions vs the
	// PR-SRAM-NT baseline.
	GreedySaving, OracleSaving float64
}

// ConsolidationTrace runs SH-STT-CC and SH-STT-CC-Oracle on one
// benchmark with epoch tracing (Figure 12 uses radix, Figure 13 lu).
func (r *Runner) ConsolidationTrace(bench string) TraceResult {
	r.Prefetch(r.traceRuns(bench)...)
	base := r.result(r.point(config.PRSRAMNT, config.Medium, 16, bench, r.TraceQuota, false))
	cc := r.result(r.point(config.SHSTTCC, config.Medium, 16, bench, r.TraceQuota, true))
	oracle := r.result(r.point(config.SHSTTCCOracle, config.Medium, 16, bench, r.TraceQuota, true))
	return TraceResult{
		Bench:        bench,
		Greedy:       cc.Trace,
		Oracle:       oracle.Trace,
		GreedySaving: 1 - cc.EnergyPJ/base.EnergyPJ,
		OracleSaving: 1 - oracle.EnergyPJ/base.EnergyPJ,
	}
}

// Claim returns the trace's energy-saving row: Figure 12 for radix,
// Figure 13 for any other benchmark.
func (t TraceResult) Claim() Claim {
	metric := "lu energy saving, greedy vs oracle"
	if t.Bench == "radix" {
		metric = "radix energy saving, greedy vs oracle"
	}
	return claim(metric, 100*t.GreedySaving, 100*t.OracleSaving)
}

// Render formats a consolidation trace pair.
func (t TraceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Consolidation trace of %s (active cores in cluster 0 per epoch)\n", t.Bench)
	b.WriteString(report.Trace("  SH-STT-CC (greedy):", &t.Greedy, 16, 24, 32))
	b.WriteString(report.Trace("  SH-STT-CC-Oracle:", &t.Oracle, 16, 24, 32))
	fmt.Fprintf(&b, "energy saving vs PR-SRAM-NT: greedy %s, oracle %s\n",
		report.PctU(t.GreedySaving), report.PctU(t.OracleSaving))
	return b.String()
}

// Figure14Row summarises active-core usage for one benchmark.
type Figure14Row struct {
	Bench          string
	Mean, Min, Max float64
}

// Figure14Result is the active-core usage study.
type Figure14Result struct{ Rows []Figure14Row }

// Figure14 measures the average (and range of) active cores per cluster
// under SH-STT-CC for every benchmark, startup excluded.
func (r *Runner) Figure14() Figure14Result {
	r.Prefetch(r.figure14Runs()...)
	var out Figure14Result
	for _, bench := range r.Benches {
		res := r.result(r.point(config.SHSTTCC, config.Medium, 16, bench, r.TraceQuota, false))
		s := res.ActiveCores
		out.Rows = append(out.Rows, Figure14Row{
			Bench: bench, Mean: s.Mean(), Min: s.Min(), Max: s.Max(),
		})
	}
	return out
}

// MeanActive returns the all-benchmark mean active-core count.
func (f Figure14Result) MeanActive() float64 {
	var vals []float64
	for _, r := range f.Rows {
		vals = append(vals, r.Mean)
	}
	return stats.Mean(vals)
}

// Render formats Figure 14.
func (f Figure14Result) Render() string {
	t := report.NewTable("Figure 14: active cores per 16-core cluster under SH-STT-CC (startup excluded)",
		"benchmark", "mean", "min", "max")
	for _, r := range f.Rows {
		t.AddRow(r.Bench, fmt.Sprintf("%.1f", r.Mean),
			fmt.Sprintf("%.0f", r.Min), fmt.Sprintf("%.0f", r.Max))
	}
	t.AddRow("average", fmt.Sprintf("%.1f", f.MeanActive()), "", "")
	return t.String()
}
