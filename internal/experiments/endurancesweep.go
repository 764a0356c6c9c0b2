package experiments

import (
	"fmt"
	"slices"

	"respin/internal/config"
	"respin/internal/endurance"
	"respin/internal/report"
	"respin/internal/sim"
)

// Endurance-sweep model parameters. Real MTJ endurance (~1e12 writes)
// and retention (seconds) are unobservable within a 150k-instruction
// run, so the sweep uses accelerated constants — small write budgets
// and short retention — and reports the *projected* lifetime from the
// observed wear rate; the wear-leveling comparison is meaningful
// because both variants wear under identical acceleration.
const (
	endurBudgetMean = 3000
	endurRetention  = 60_000
	// endurWearPeriod rotates often enough that even short smoke-test
	// quotas exercise the remapping.
	endurWearPeriod = 8192
)

// EnduranceRow is one point of the endurance study.
type EnduranceRow struct {
	Label       string
	ClusterSize int
	// WearLevel marks the rotation-enabled variant; Clean marks the
	// endurance-off baseline row.
	WearLevel bool
	Clean     bool
	// Measured outcome.
	Cycles   uint64
	Slowdown float64 // time vs the same config endurance-free
	// Endurance summary (zero for clean rows).
	RetiredWays     int
	TotalWays       int
	MaxWearFracPct  float64
	ProjectedTTF    float64 // projected cycles to first way retirement
	Scrubs          uint64
	RetentionLosses uint64
	Rotations       uint64
	// WoreOutAt is the cycle a set lost its last way (0 = survived).
	WoreOutAt uint64
}

// EnduranceStudy is the wear-out/retention lifetime sweep: how fast the
// shared-STT arrays consume their write budgets at each cluster size,
// and how much projected lifetime the wear-leveling rotation buys back.
type EnduranceStudy struct {
	Bench string
	Rows  []EnduranceRow
}

// EnduranceSweep runs the lifetime study on one representative
// benchmark: SH-STT at cluster sizes 8/16/32, each with accelerated
// wear+retention, wear-leveling off and on, against an endurance-free
// baseline for slowdown. Larger clusters concentrate more cores'
// writes on one shared L1/L2, so per-set wear — and therefore
// projected lifetime — shifts with cluster size; the rotation variant
// shows how much of that concentration wear-leveling spreads back out.
// A run that wears out (a set loses its last way) is a valid sweep
// outcome, recorded with its end-of-life cycle.
func (r *Runner) EnduranceSweep() *EnduranceStudy {
	bench := r.Benches[0]
	if slices.Contains(r.Benches, "radix") {
		bench = "radix"
	}
	st := &EnduranceStudy{Bench: bench}
	sizes := []int{8, 16, 32}

	// The whole sweep is one batch: per cluster size, the clean
	// baseline, then wear without and with leveling.
	var runs []Run
	for _, cs := range sizes {
		for _, v := range []struct {
			tag string
			ep  endurance.Params
		}{{"clean", endurance.Params{}}, {"wear", r.endurancePoint(false)}, {"wear+wl", r.endurancePoint(true)}} {
			runs = append(runs, Run{
				Label:  fmt.Sprintf("endur.%s.cl%d.%s", v.tag, cs, bench),
				Config: config.NewWithCluster(config.SHSTT, config.Medium, cs),
				Bench:  bench,
				Opts:   sim.Options{QuotaInstr: r.Quota, Seed: r.Seed, Endurance: v.ep},
			})
		}
	}
	res := r.must(runs...)
	for i, cs := range sizes {
		clean := res[3*i]
		st.addRow(fmt.Sprintf("SH-STT cl%d clean", cs), cs, true, clean, clean)
		st.addRow(fmt.Sprintf("SH-STT cl%d endurance", cs), cs, false, res[3*i+1], clean)
		st.addRow(fmt.Sprintf("SH-STT cl%d endurance+wear-level", cs), cs, false, res[3*i+2], clean)
	}
	return st
}

// endurancePoint is the accelerated sweep configuration (wear-leveling
// toggled per variant).
func (r *Runner) endurancePoint(wearLevel bool) endurance.Params {
	p := endurance.Params{
		Seed:            r.faultSeed(),
		BudgetMean:      endurBudgetMean,
		RetentionCycles: endurRetention,
		WearLevel:       wearLevel,
	}
	if wearLevel {
		p.WearLevelPeriod = endurWearPeriod
	}
	return p
}

func (st *EnduranceStudy) addRow(label string, cs int, clean bool, res, base sim.Result) {
	row := EnduranceRow{
		Label:       label,
		ClusterSize: cs,
		Clean:       clean,
		Cycles:      res.Cycles,
	}
	if base.Cycles > 0 {
		row.Slowdown = float64(res.Cycles) / float64(base.Cycles)
	}
	if e := res.Endurance; e != nil {
		row.WearLevel = e.WearLevel
		row.RetiredWays = e.RetiredWays
		row.TotalWays = e.TotalWays
		row.MaxWearFracPct = e.MaxWearFracPct
		row.ProjectedTTF = e.ProjectedTTF
		row.Scrubs = e.Scrubs
		row.RetentionLosses = e.RetentionLosses
		row.Rotations = e.Rotations
		row.WoreOutAt = e.WoreOutAt
	}
	st.Rows = append(st.Rows, row)
}

// Render prints the lifetime table.
func (st *EnduranceStudy) Render() string {
	t := report.NewTable(
		fmt.Sprintf("STT endurance & retention: lifetime vs cluster size and wear-leveling (%s, medium, accelerated wear)", st.Bench),
		"scenario", "time", "retired ways", "max wear", "proj lifetime",
		"scrubs", "ret losses", "rotations", "wore out")
	for _, row := range st.Rows {
		retired, wear, life, scrubs, losses, rot, wore := "-", "-", "-", "-", "-", "-", "-"
		if !row.Clean {
			retired = fmt.Sprintf("%d/%d", row.RetiredWays, row.TotalWays)
			wear = fmt.Sprintf("%.1f%%", row.MaxWearFracPct)
			if row.ProjectedTTF > 0 {
				life = fmt.Sprintf("%.2f Mcyc", row.ProjectedTTF/1e6)
			}
			scrubs = fmt.Sprintf("%d", row.Scrubs)
			losses = fmt.Sprintf("%d", row.RetentionLosses)
			rot = fmt.Sprintf("%d", row.Rotations)
			if row.WoreOutAt > 0 {
				wore = fmt.Sprintf("cycle %d", row.WoreOutAt)
			} else {
				wore = "no"
			}
		}
		t.AddRow(row.Label,
			fmt.Sprintf("%.3fx", row.Slowdown),
			retired, wear, life, scrubs, losses, rot, wore)
	}
	return t.String()
}
