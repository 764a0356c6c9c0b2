package main

import (
	"math"
	"sort"
)

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// base median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the simulator, the reproduction or the
// service sees. Every workload reports every one of them: an "op" is
// the workload's unit of work (one simulation, one reproduction, one
// HTTP request), so each metric keeps one meaning per workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// selfPackages are the CPU-profile attribution buckets, in report order.
var selfPackages = []string{
	"cluster", "cpu", "sharedcache", "coherence", "mem", "trace", "rng",
	"sim", "consolidation", "power", "checkpoint", "experiments", "serve",
	"api_v1", "telemetry", "encoding", "crypto", "net", "runtime", "other",
}

// perLayer lists the traced run's per-layer metrics. The layer probes
// call each package's public API on inputs derived from the workload,
// so every metric exists on every workload; the README maps each one to
// the end-to-end metric and workload it should move.
var perLayer = append([]metricDef{
	{Name: "sim.construct_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "sim.ns_per_epoch", Unit: "ns", Better: "lower"},
	{Name: "sim.epochs", Unit: "count", Better: "lower"},
	{Name: "sim.drained_requests", Unit: "count", Better: "lower"},
	{Name: "sim.ff_skipped_frac", Unit: "ratio", Better: "higher"},
	{Name: "cluster.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "cpu.step_ns", Unit: "ns", Better: "lower"},
	{Name: "sharedcache.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "sharedcache.half_miss_frac", Unit: "ratio", Better: "lower"},
	{Name: "coherence.access_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.access_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.l1d_miss_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.next_ns", Unit: "ns", Better: "lower"},
	{Name: "runner.runs_started", Unit: "count", Better: "lower"},
	{Name: "runner.cache_hits", Unit: "count", Better: "higher"},
	{Name: "runner.tail_frac", Unit: "ratio", Better: "lower"},
	{Name: "checkpoint.save_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.mb", Unit: "MB", Better: "lower"},
	{Name: "checkpoint.writes", Unit: "count", Better: "lower"},
	{Name: "v1.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "v1.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "v1.body_kb", Unit: "KB", Better: "lower"},
	{Name: "serve.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.transport_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "gc.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}, selfMetrics()...)

func selfMetrics() []metricDef {
	defs := make([]metricDef, len(selfPackages))
	for i, p := range selfPackages {
		defs[i] = metricDef{Name: "self." + p + "_frac", Unit: "ratio", Better: "lower"}
	}
	return defs
}

// quantile returns the p-quantile of sorted by linear interpolation
// between the closest ranks.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// summary is a sample's median, quartiles and count.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean more than the few largest values.
const minBeyond = 10

// tailPercentile picks the highest reported tail percentile (p99, else
// p90) that leaves at least minBeyond of n samples above it. When even
// p90 does not, it still returns p90 and ok=false, so a workload's tail
// metric keeps one definition while the report flags it as thin.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range []float64{0.99, 0.90} {
		if samplesBeyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0.90, false
}

// samplesBeyond counts the samples above quantile's p-th percentile of
// n distinct values: those ranked past the interpolation point.
func samplesBeyond(n int, p float64) int {
	// The epsilon absorbs p's binary rounding at integral ranks.
	return n - 1 - int(math.Floor(p*float64(n-1)+1e-9))
}
