package experiments

import (
	"fmt"

	"respin/internal/config"
	"respin/internal/power"
	"respin/internal/report"
)

// Figure6Row is one (scale, configuration) power point.
type Figure6Row struct {
	Scale  config.CacheScale
	Kind   config.ArchKind
	LeakW  float64
	DynW   float64
	TotalW float64
	VsBase float64 // total power relative to PR-SRAM-NT at same scale
}

// Figure6Result holds the shared-cache power study.
type Figure6Result struct{ Rows []Figure6Row }

// Figure6 measures average chip power for PR-SRAM-NT, SH-STT and
// SH-SRAM-Nom at the three cache scales (benchmark arithmetic mean, as
// in the paper's figure).
func (r *Runner) Figure6() Figure6Result {
	r.Prefetch(r.figure6Runs()...)
	kinds := []config.ArchKind{config.PRSRAMNT, config.SHSTT, config.SHSRAMNom}
	var out Figure6Result
	for _, scale := range []config.CacheScale{config.Small, config.Medium, config.Large} {
		var base float64
		for _, kind := range kinds {
			var leak, dyn, total float64
			for _, bench := range r.Benches {
				res := r.result(r.point(kind, scale, 16, bench, r.Quota, false))
				ps := float64(res.TimePS)
				leak += res.Energy.LeakagePJ() / ps
				dyn += res.Energy.DynamicPJ() / ps
				total += res.AvgPowerW
			}
			n := float64(len(r.Benches))
			row := Figure6Row{Scale: scale, Kind: kind, LeakW: leak / n, DynW: dyn / n, TotalW: total / n}
			if kind == config.PRSRAMNT {
				base = row.TotalW
			}
			row.VsBase = row.TotalW/base - 1
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// Render formats Figure 6.
func (f Figure6Result) Render() string {
	t := report.NewTable("Figure 6: average chip power by cache size (leakage/dynamic split)",
		"scale", "config", "leakage", "dynamic", "total", "vs PR-SRAM-NT")
	for _, r := range f.Rows {
		t.AddRow(r.Scale.String(), r.Kind.String(),
			report.Watts(r.LeakW), report.Watts(r.DynW), report.Watts(r.TotalW),
			report.Pct(r.VsBase))
	}
	return t.String()
}

// Reduction returns the SH-STT power reduction vs baseline at a scale.
func (f Figure6Result) Reduction(scale config.CacheScale) float64 {
	for _, r := range f.Rows {
		if r.Scale == scale && r.Kind == config.SHSTT {
			return -r.VsBase
		}
	}
	return 0
}

// Figure7Result is the per-benchmark normalised execution time study.
type Figure7Result struct {
	Benches []string
	// Normalized[kind][i] = time(kind, bench i) / time(baseline, bench i).
	Normalized map[config.ArchKind][]float64
}

// figure7Kinds are the configurations shown in Figure 7.
var figure7Kinds = []config.ArchKind{config.SHSTT, config.SHSRAMNom, config.HPSRAMCMP}

// Figure7 measures execution time normalised to PR-SRAM-NT.
func (r *Runner) Figure7() Figure7Result {
	r.Prefetch(r.figure7Runs()...)
	out := Figure7Result{Benches: r.Benches, Normalized: map[config.ArchKind][]float64{}}
	for _, bench := range r.Benches {
		base := r.medium(config.PRSRAMNT, bench)
		for _, kind := range figure7Kinds {
			res := r.medium(kind, bench)
			out.Normalized[kind] = append(out.Normalized[kind],
				float64(res.Cycles)/float64(base.Cycles))
		}
	}
	return out
}

// Mean returns the geometric-mean normalised time for a configuration.
func (f Figure7Result) Mean(kind config.ArchKind) float64 {
	return meanNormalized(f.Normalized[kind])
}

// Render formats Figure 7.
func (f Figure7Result) Render() string {
	t := report.NewTable("Figure 7: execution time normalised to PR-SRAM-NT",
		append([]string{"benchmark"}, kindNames(figure7Kinds)...)...)
	for i, b := range f.Benches {
		row := []string{b}
		for _, kind := range figure7Kinds {
			row = append(row, report.Norm(f.Normalized[kind][i]))
		}
		t.AddRow(row...)
	}
	mean := []string{"geomean"}
	for _, kind := range figure7Kinds {
		mean = append(mean, report.Norm(f.Mean(kind)))
	}
	t.AddRow(mean...)
	return t.String()
}

func kindNames(kinds []config.ArchKind) []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.String()
	}
	return out
}

// Figure8Result is normalised energy vs cache scale.
type Figure8Result struct {
	// Normalized[scale][kind] = geomean energy vs PR-SRAM-NT at scale.
	Normalized map[config.CacheScale]map[config.ArchKind]float64
}

// Figure8 measures energy by cache scale for SH-STT and SH-SRAM-Nom.
func (r *Runner) Figure8() Figure8Result {
	r.Prefetch(r.figure6Runs()...) // Figure 8 reuses Figure 6's run set
	kinds := []config.ArchKind{config.SHSTT, config.SHSRAMNom}
	out := Figure8Result{Normalized: map[config.CacheScale]map[config.ArchKind]float64{}}
	for _, scale := range []config.CacheScale{config.Small, config.Medium, config.Large} {
		out.Normalized[scale] = map[config.ArchKind]float64{}
		for _, kind := range kinds {
			var vals []float64
			for _, bench := range r.Benches {
				base := r.result(r.point(config.PRSRAMNT, scale, 16, bench, r.Quota, false))
				res := r.result(r.point(kind, scale, 16, bench, r.Quota, false))
				vals = append(vals, res.EnergyPJ/base.EnergyPJ)
			}
			out.Normalized[scale][kind] = meanNormalized(vals)
		}
	}
	return out
}

// Render formats Figure 8.
func (f Figure8Result) Render() string {
	t := report.NewTable("Figure 8: energy normalised to PR-SRAM-NT, by cache size",
		"scale", "SH-STT", "SH-SRAM-Nom")
	for _, scale := range []config.CacheScale{config.Small, config.Medium, config.Large} {
		t.AddRow(scale.String(),
			report.Norm(f.Normalized[scale][config.SHSTT]),
			report.Norm(f.Normalized[scale][config.SHSRAMNom]))
	}
	return t.String()
}

// figure9Kinds are the configurations shown in Figure 9, in the paper's
// order.
var figure9Kinds = []config.ArchKind{
	config.SHSRAMNom, config.HPSRAMCMP, config.SHSTT,
	config.PRSTTCC, config.SHSTTCC, config.SHSTTCCOracle, config.SHSTTCCOS,
}

// Figure9Result is the per-benchmark normalised energy study.
type Figure9Result struct {
	Benches    []string
	Normalized map[config.ArchKind][]float64
}

// Figure9 measures energy normalised to PR-SRAM-NT for every Table IV
// configuration.
func (r *Runner) Figure9() Figure9Result {
	r.Prefetch(r.figure9Runs()...)
	out := Figure9Result{Benches: r.Benches, Normalized: map[config.ArchKind][]float64{}}
	for _, bench := range r.Benches {
		base := r.medium(config.PRSRAMNT, bench)
		for _, kind := range figure9Kinds {
			res := r.medium(kind, bench)
			out.Normalized[kind] = append(out.Normalized[kind],
				res.EnergyPJ/base.EnergyPJ)
		}
	}
	return out
}

// Mean returns the geometric-mean normalised energy for a configuration.
func (f Figure9Result) Mean(kind config.ArchKind) float64 {
	return meanNormalized(f.Normalized[kind])
}

// Render formats Figure 9.
func (f Figure9Result) Render() string {
	t := report.NewTable("Figure 9: energy normalised to PR-SRAM-NT",
		append([]string{"benchmark"}, kindNames(figure9Kinds)...)...)
	for i, b := range f.Benches {
		row := []string{b}
		for _, kind := range figure9Kinds {
			row = append(row, report.Norm(f.Normalized[kind][i]))
		}
		t.AddRow(row...)
	}
	mean := []string{"geomean"}
	for _, kind := range figure9Kinds {
		mean = append(mean, report.Norm(f.Mean(kind)))
	}
	t.AddRow(mean...)
	return t.String()
}

// ClusterSweepRow is one cluster-size data point of the Section V.D
// study.
type ClusterSweepRow struct {
	ClusterSize int
	// SpeedupVsBase is the execution-time improvement of SH-STT at
	// this cluster size over the PR-SRAM-NT baseline.
	SpeedupVsBase float64
	HalfMissRate  float64
}

// ClusterSweepResult is the Section V.D sweep.
type ClusterSweepResult struct{ Rows []ClusterSweepRow }

// ClusterSweep measures the optimal cluster size: SH-STT at 4, 8, 16 and
// 32 cores per cluster versus the fixed PR-SRAM-NT baseline.
func (r *Runner) ClusterSweep() ClusterSweepResult {
	r.Prefetch(r.clusterSweepRuns()...)
	var out ClusterSweepResult
	for _, cs := range []int{4, 8, 16, 32} {
		var vals []float64
		var hm, hmN float64
		for _, bench := range r.Benches {
			base := r.medium(config.PRSRAMNT, bench)
			res := r.result(r.point(config.SHSTT, config.Medium, cs, bench, r.Quota, false))
			vals = append(vals, float64(res.Cycles)/float64(base.Cycles))
			hm += res.HalfMissRate
			hmN++
		}
		out.Rows = append(out.Rows, ClusterSweepRow{
			ClusterSize:   cs,
			SpeedupVsBase: 1 - meanNormalized(vals),
			HalfMissRate:  hm / hmN,
		})
	}
	return out
}

// Render formats the cluster-size sweep.
func (f ClusterSweepResult) Render() string {
	t := report.NewTable("Section V.D: cluster-size sweep (SH-STT vs PR-SRAM-NT)",
		"cores/cluster", "shared L1 size", "time improvement", "half-miss rate")
	for _, r := range f.Rows {
		t.AddRow(fmt.Sprintf("%d", r.ClusterSize),
			fmt.Sprintf("%dKB", 16*r.ClusterSize),
			report.Pct(r.SpeedupVsBase),
			report.PctU(r.HalfMissRate))
	}
	return t.String()
}

// Best returns the cluster size with the largest improvement.
func (f ClusterSweepResult) Best() int {
	best, bestV := 0, -1.0
	for _, r := range f.Rows {
		if r.SpeedupVsBase > bestV {
			best, bestV = r.ClusterSize, r.SpeedupVsBase
		}
	}
	return best
}

// powerOf reproduces the Figure 6 split for one run (helper for tests).
func powerOf(res power.Meter, ps int64) (leakW, dynW float64) {
	return res.LeakagePJ() / float64(ps), res.DynamicPJ() / float64(ps)
}
