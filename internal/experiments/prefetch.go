package experiments

import (
	"slices"

	"respin/internal/config"
)

// This file enumerates each figure driver's run set. Drivers
// prefetch their set before consuming results, and All prefetches the
// union up front, so the worker pool stays saturated across figure
// boundaries while the report is still assembled in deterministic order.

// figure6Runs covers Figures 6 and 8: three scales x three
// configurations x every benchmark.
func (r *Runner) figure6Runs() []Run {
	var runs []Run
	for _, scale := range []config.CacheScale{config.Small, config.Medium, config.Large} {
		for _, kind := range []config.ArchKind{config.PRSRAMNT, config.SHSTT, config.SHSRAMNom} {
			for _, bench := range r.Benches {
				runs = append(runs, r.point(kind, scale, 16, bench, r.Quota, false))
			}
		}
	}
	return runs
}

// defaultPointRuns covers kinds at the default point, benchmark by
// benchmark.
func (r *Runner) defaultPointRuns(kinds ...config.ArchKind) []Run {
	var runs []Run
	for _, bench := range r.Benches {
		for _, kind := range kinds {
			runs = append(runs, r.mediumPoint(kind, bench))
		}
	}
	return runs
}

// figure7Runs covers Figure 7: the baseline plus figure7Kinds.
func (r *Runner) figure7Runs() []Run {
	return r.defaultPointRuns(append([]config.ArchKind{config.PRSRAMNT}, figure7Kinds...)...)
}

// figure9Runs covers Figure 9: the baseline plus every Table IV
// configuration.
func (r *Runner) figure9Runs() []Run {
	return r.defaultPointRuns(append([]config.ArchKind{config.PRSRAMNT}, figure9Kinds...)...)
}

// Figure9Runs exposes the Figure 9 run set (the baseline plus every
// Table IV configuration at the default point, deduplicated) so the
// evaluation service's "fig9" sweep preset fans out exactly the runs
// the figure driver would.
func (r *Runner) Figure9Runs() []Run {
	return r.dedupe(r.figure9Runs())
}

// clusterSweepRuns covers the Section V.D sweep.
func (r *Runner) clusterSweepRuns() []Run {
	var runs []Run
	for _, bench := range r.Benches {
		runs = append(runs, r.mediumPoint(config.PRSRAMNT, bench))
		for _, cs := range []int{4, 8, 16, 32} {
			runs = append(runs, r.point(config.SHSTT, config.Medium, cs, bench, r.Quota, false))
		}
	}
	return runs
}

// traceRuns covers one consolidation trace (Figures 12/13).
func (r *Runner) traceRuns(bench string) []Run {
	return []Run{
		r.point(config.PRSRAMNT, config.Medium, 16, bench, r.TraceQuota, false),
		r.point(config.SHSTTCC, config.Medium, 16, bench, r.TraceQuota, true),
		r.point(config.SHSTTCCOracle, config.Medium, 16, bench, r.TraceQuota, true),
	}
}

// figure14Runs covers the active-core study: the greedy runs of the
// consolidation traces, for every benchmark, so the radix and lu runs
// are the traceRuns ones and are simulated once.
func (r *Runner) figure14Runs() []Run {
	var runs []Run
	for _, bench := range r.Benches {
		runs = append(runs, r.figure14Point(bench))
	}
	return runs
}

// figure14Point is one benchmark's Figure 14 run. Recording the epoch
// trace does not change the simulation, only what its result carries.
func (r *Runner) figure14Point(bench string) Run {
	return r.point(config.SHSTTCC, config.Medium, 16, bench, r.TraceQuota, true)
}

// EvalRuns returns the full evaluation's deduplicated run set in the
// order All consumes it. All prefetches this so the pool never drains
// between figures.
func (r *Runner) EvalRuns() []Run {
	var runs []Run
	runs = append(runs, r.defaultPointRuns(config.PRSRAMNT)...) // workload table
	runs = append(runs, r.figure6Runs()...)
	runs = append(runs, r.figure7Runs()...)
	runs = append(runs, r.figure9Runs()...)
	runs = append(runs, r.clusterSweepRuns()...)
	runs = append(runs, r.defaultPointRuns(config.SHSTT)...) // Figures 10 and 11
	for _, bench := range []string{"radix", "lu"} {
		if slices.Contains(r.Benches, bench) {
			runs = append(runs, r.traceRuns(bench)...)
		}
	}
	runs = append(runs, r.figure14Runs()...)
	return r.dedupe(runs)
}

// dedupe removes runs that simulate what an earlier run does, by the
// key the runner's flights use (define), preserving first-seen order. A
// run without a key is kept, to fail where it is run.
func (r *Runner) dedupe(runs []Run) []Run {
	seen := make(map[string]bool, len(runs))
	out := make([]Run, 0, len(runs))
	for _, run := range runs {
		if _, key, err := r.define(run); err == nil {
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		out = append(out, run)
	}
	return out
}
