// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablations of the design choices DESIGN.md
// calls out. Each benchmark regenerates its artifact on a reduced
// workload (two representative benchmarks, short quotas) so the whole
// suite completes in minutes on one core, and reports the artifact's
// headline numbers as custom metrics. The metrics are informational:
// the experiments package's TestClaims gates every claim exactly.
// cmd/respin-bench runs the full-fidelity versions.
package respin

import (
	"fmt"
	"strings"
	"testing"

	"respin/internal/config"
	"respin/internal/experiments"
	"respin/internal/sim"
)

// benchRunner builds a reduced experiment runner for benchmark use.
func benchRunner() *experiments.Runner {
	r := experiments.QuickRunner()
	r.Benches = []string{"fft", "radix"}
	r.Quota = 25_000
	r.TraceQuota = 100_000
	return r
}

// BenchmarkFigure1 regenerates the motivating power breakdown.
func BenchmarkFigure1(b *testing.B) {
	b.ReportAllocs()
	var leakFrac float64
	for i := 0; i < b.N; i++ {
		f := experiments.Figure1()
		leakFrac = f.NearThreshold.LeakFraction()
	}
	b.ReportMetric(leakFrac*100, "NT-leak-%")
}

// BenchmarkTableI echoes the cache-hierarchy table.
func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if experiments.TableI() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableIII regenerates the technology model's rows against the
// paper's anchors.
func BenchmarkTableIII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if experiments.TableIII() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableIV echoes the configuration legend.
func BenchmarkTableIV(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if experiments.TableIV() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure6 regenerates the power study (small/medium/large).
func BenchmarkFigure6(b *testing.B) {
	b.ReportAllocs()
	var medium float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		medium = r.Figure6().Reduction(config.Medium)
	}
	b.ReportMetric(medium*100, "SH-STT-medium-power-reduction-%")
}

// BenchmarkFigure7 regenerates the normalised execution-time study.
func BenchmarkFigure7(b *testing.B) {
	b.ReportAllocs()
	var t float64
	for i := 0; i < b.N; i++ {
		t = benchRunner().Figure7().Mean(config.SHSTT)
	}
	b.ReportMetric(t, "SH-STT-norm-time")
}

// BenchmarkFigure8 regenerates the energy-by-scale study.
func BenchmarkFigure8(b *testing.B) {
	b.ReportAllocs()
	var e float64
	for i := 0; i < b.N; i++ {
		f := benchRunner().Figure8()
		e = f.Normalized[config.Large][config.SHSTT]
	}
	b.ReportMetric(e, "SH-STT-large-norm-energy")
}

// BenchmarkFigure9 regenerates the per-benchmark energy comparison.
func BenchmarkFigure9(b *testing.B) {
	b.ReportAllocs()
	var e float64
	for i := 0; i < b.N; i++ {
		e = benchRunner().Figure9().Mean(config.SHSTT)
	}
	b.ReportMetric(e, "SH-STT-norm-energy")
}

// BenchmarkClusterSweep regenerates the Section V.D cluster-size sweep.
func BenchmarkClusterSweep(b *testing.B) {
	b.ReportAllocs()
	best := 0
	for i := 0; i < b.N; i++ {
		best = benchRunner().ClusterSweep().Best()
	}
	b.ReportMetric(float64(best), "optimal-cluster-size")
}

// BenchmarkFigure10 regenerates the shared-cache arrival histogram.
func BenchmarkFigure10(b *testing.B) {
	b.ReportAllocs()
	var idle float64
	for i := 0; i < b.N; i++ {
		idle = benchRunner().Figure10().Mean.Fraction(0)
	}
	b.ReportMetric(idle*100, "idle-cache-cycles-%")
}

// BenchmarkFigure11 regenerates the read service-latency histogram.
func BenchmarkFigure11(b *testing.B) {
	b.ReportAllocs()
	var one float64
	for i := 0; i < b.N; i++ {
		one = benchRunner().Figure11().OneCycleFraction()
	}
	b.ReportMetric(one*100, "1-core-cycle-reads-%")
}

// BenchmarkFigure12 regenerates the radix consolidation trace.
func BenchmarkFigure12(b *testing.B) {
	b.ReportAllocs()
	var saving float64
	for i := 0; i < b.N; i++ {
		saving = benchRunner().ConsolidationTrace("radix").GreedySaving
	}
	b.ReportMetric(saving*100, "radix-CC-energy-saving-%")
}

// BenchmarkFigure13 regenerates the lu consolidation trace.
func BenchmarkFigure13(b *testing.B) {
	b.ReportAllocs()
	var saving float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		r.Benches = []string{"lu"}
		saving = r.ConsolidationTrace("lu").GreedySaving
	}
	b.ReportMetric(saving*100, "lu-CC-energy-saving-%")
}

// BenchmarkFigure14 regenerates the active-core usage summary.
func BenchmarkFigure14(b *testing.B) {
	b.ReportAllocs()
	var mean float64
	for i := 0; i < b.N; i++ {
		mean = benchRunner().Figure14().MeanActive()
	}
	b.ReportMetric(mean, "mean-active-cores")
}

// BenchmarkTable4 measures the parallel runner on the Figure 9 run set
// (every Table IV configuration on two benchmarks), at serial and
// 8-wide parallelism. On a multi-core machine jobs-8 should show
// substantially lower ns/op; the reports must be identical either way.
func BenchmarkTable4(b *testing.B) {
	b.ReportAllocs()
	for _, jobs := range []int{1, 8} {
		jobs := jobs
		b.Run(map[int]string{1: "jobs-1", 8: "jobs-8"}[jobs], func(b *testing.B) {
			b.ReportAllocs()
			var e float64
			for i := 0; i < b.N; i++ {
				r := benchRunner()
				r.Jobs = jobs
				e = r.Figure9().Mean(config.SHSTT)
			}
			b.ReportMetric(e, "SH-STT-norm-energy")
		})
	}
}

// BenchmarkSimThroughput measures raw simulator speed (instructions
// simulated per second) on the proposed configuration.
func BenchmarkSimThroughput(b *testing.B) {
	b.ReportAllocs()
	var instr uint64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(config.New(config.SHSTT, config.Medium), "fft",
			sim.Options{QuotaInstr: 25_000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		instr += res.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkAblations runs the design ablations (experiments.Ablations:
// arbitration, epoch length, back-off, remapper order, level derates
// and the Table III leakage ratio) on a fresh quick runner per
// iteration and reports each claim value as a metric.
func BenchmarkAblations(b *testing.B) {
	b.ReportAllocs()
	var claims []experiments.Claim
	for i := 0; i < b.N; i++ {
		claims = experiments.QuickRunner().Ablations()
	}
	for _, c := range claims {
		for j, v := range c.Values {
			unit := strings.ReplaceAll(c.Metric, " ", "_")
			if len(c.Values) > 1 {
				unit += fmt.Sprintf("#%d", j)
			}
			b.ReportMetric(v, unit)
		}
	}
}
