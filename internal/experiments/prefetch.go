package experiments

import "respin/internal/config"

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

// figure7Runs covers Figure 7: the baseline plus figure7Kinds at the
// default point.
func (r *Runner) figure7Runs() []Run {
	var runs []Run
	for _, bench := range r.Benches {
		runs = append(runs, r.mediumPoint(config.PRSRAMNT, bench))
		for _, kind := range figure7Kinds {
			runs = append(runs, r.mediumPoint(kind, bench))
		}
	}
	return runs
}

// figure9Runs covers Figure 9: the baseline plus every Table IV
// configuration at the default point.
func (r *Runner) figure9Runs() []Run {
	var runs []Run
	for _, bench := range r.Benches {
		runs = append(runs, r.mediumPoint(config.PRSRAMNT, bench))
		for _, kind := range figure9Kinds {
			runs = append(runs, r.mediumPoint(kind, bench))
		}
	}
	return runs
}

// Figure9Runs exposes the Figure 9 run set (the baseline plus every
// Table IV configuration at the default point, deduplicated) so the
// evaluation service's "fig9" sweep preset fans out exactly the runs
// the figure driver would.
func (r *Runner) Figure9Runs() []Run {
	return dedupe(r.figure9Runs())
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

// sharedStatsRuns covers Figures 10 and 11 (both reuse the SH-STT
// default runs).
func (r *Runner) sharedStatsRuns() []Run {
	var runs []Run
	for _, bench := range r.Benches {
		runs = append(runs, r.mediumPoint(config.SHSTT, bench))
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

// figure14Runs covers the active-core study.
func (r *Runner) figure14Runs() []Run {
	var runs []Run
	for _, bench := range r.Benches {
		runs = append(runs, r.point(config.SHSTTCC, config.Medium, 16, bench, r.TraceQuota, false))
	}
	return runs
}

// workloadRuns covers the workload characterisation table.
func (r *Runner) workloadRuns() []Run {
	var runs []Run
	for _, bench := range r.Benches {
		runs = append(runs, r.mediumPoint(config.PRSRAMNT, bench))
	}
	return runs
}

// EvalRuns returns the full evaluation's deduplicated run set in the
// order All consumes it. All prefetches this so the pool never drains
// between figures.
func (r *Runner) EvalRuns() []Run {
	var runs []Run
	runs = append(runs, r.workloadRuns()...)
	runs = append(runs, r.figure6Runs()...)
	runs = append(runs, r.figure7Runs()...)
	runs = append(runs, r.figure9Runs()...)
	runs = append(runs, r.clusterSweepRuns()...)
	runs = append(runs, r.sharedStatsRuns()...)
	for _, bench := range []string{"radix", "lu"} {
		if contains(r.Benches, bench) {
			runs = append(runs, r.traceRuns(bench)...)
		}
	}
	runs = append(runs, r.figure14Runs()...)
	return dedupe(runs)
}

// dedupe removes runs whose label was already seen, preserving
// first-seen order.
func dedupe(runs []Run) []Run {
	seen := make(map[string]bool, len(runs))
	out := make([]Run, 0, len(runs))
	for _, run := range runs {
		if seen[run.Label] {
			continue
		}
		seen[run.Label] = true
		out = append(out, run)
	}
	return out
}
