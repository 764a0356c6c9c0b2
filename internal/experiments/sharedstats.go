package experiments

import (
	"strings"

	"respin/internal/config"
	"respin/internal/report"
	"respin/internal/stats"
)

// Figure10Result is the shared-L1D utilisation histogram study.
type Figure10Result struct {
	// PerBench maps benchmark -> arrivals-per-cycle histogram.
	PerBench map[string]*stats.Histogram
	// Mean is the all-benchmark aggregate.
	Mean *stats.Histogram
}

// Figure10 measures how many requests arrive at the shared L1D per cache
// cycle under SH-STT (medium, 16-core clusters).
func (r *Runner) Figure10() Figure10Result {
	r.Prefetch(r.sharedStatsRuns()...)
	out := Figure10Result{PerBench: map[string]*stats.Histogram{}, Mean: stats.NewHistogram(4)}
	for _, bench := range r.Benches {
		res := r.medium(config.SHSTT, bench)
		out.PerBench[bench] = res.ArrivalsPerCycle
		out.Mean.Merge(res.ArrivalsPerCycle)
	}
	return out
}

var arrivalsLabels = []string{"0 requests", "1 request", "2 requests", "3 requests", "4+ requests"}

// Render formats Figure 10.
func (f Figure10Result) Render() string {
	var b strings.Builder
	b.WriteString(report.Histogram(
		"Figure 10: requests arriving at the shared DL1 per cache cycle (all-benchmark mean)",
		f.Mean, arrivalsLabels, 40))
	return b.String()
}

// Figure11Result is the read-hit service latency study.
type Figure11Result struct {
	PerBench map[string]*stats.Histogram
	Mean     *stats.Histogram
	// HalfMissRate is the mean fraction of reads with >= 1 half-miss.
	HalfMissRate float64
}

// Figure11 measures shared-L1D read service latency in core cycles.
func (r *Runner) Figure11() Figure11Result {
	r.Prefetch(r.sharedStatsRuns()...)
	out := Figure11Result{PerBench: map[string]*stats.Histogram{}, Mean: stats.NewHistogram(3)}
	var hm float64
	for _, bench := range r.Benches {
		res := r.medium(config.SHSTT, bench)
		out.PerBench[bench] = res.ReadCoreCycles
		out.Mean.Merge(res.ReadCoreCycles)
		hm += res.HalfMissRate
	}
	out.HalfMissRate = hm / float64(len(r.Benches))
	return out
}

// OneCycleFraction returns the fraction of reads serviced in one core
// cycle (the paper reports 95.8%).
func (f Figure11Result) OneCycleFraction() float64 { return f.Mean.Fraction(1) }

var latencyLabels = []string{"(unused)", "1 core cycle", "2 core cycles", "more"}

// Render formats Figure 11.
func (f Figure11Result) Render() string {
	var b strings.Builder
	b.WriteString(report.Histogram(
		"Figure 11: shared DL1 read requests serviced in N core cycles (all-benchmark mean)",
		f.Mean, latencyLabels, 40))
	b.WriteString("half-miss rate: " + report.PctU(f.HalfMissRate) + "\n")
	return b.String()
}
