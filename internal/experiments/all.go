package experiments

import (
	"fmt"
	"slices"
	"strings"

	v1 "respin/internal/api/v1"
	"respin/internal/config"
)

// Suite holds the complete evaluation output.
type Suite struct {
	Sections []string
	Claims   []Claim
}

// All runs the complete evaluation: every table and figure plus the
// paper-vs-measured claims. With the full Runner this takes about 8
// minutes on 2 cores.
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
	measure := func(metric string, values ...float64) {
		s.Claims = append(s.Claims, claim(metric, values...))
	}

	// Static / analytic artifacts.
	f1 := Figure1()
	add(f1.Render())
	measure("NT leakage share of chip power", 100*f1.NearThreshold.LeakFraction())
	measure("NT cache share of leakage", 100*f1.NearThreshold.CacheLeakShareOfLeak())
	measure("nominal dynamic share", 100*(1-f1.Nominal.LeakFraction()))
	add(Floorplan())
	add(TableI())
	add(TableIII())
	add(TableIV())

	// Area proportioning (Section IV).
	area := AreaStudy()
	add(area.Render())
	measure("cache share of chip area, medium", 100*area.Share(config.Medium))
	measure("cache share of chip area, large", 100*area.Share(config.Large))

	// The reliability rationale for the dual rails (Section I).
	vm := VminStudy()
	add(vm.Render())
	measure("0.65V rail safe for all SRAM arrays (SECDED)", boolValue(vm.RailIsSafe()))
	measure("0.4V SRAM unusable even with SECDED", boolValue(vm.NTIsUnusable()))

	// Variation heterogeneity (methodology, Section IV).
	vs := VariationStudy()
	add(vs.Render())
	measure("fmax spread at default sigma", vs.Rows[2].SpreadRatio)

	// Workload characterisation (methodology).
	add(r.WorkloadTable().Render())

	if interrupted() {
		return s
	}

	// Power (Figure 6).
	f6 := r.Figure6()
	add(f6.Render())
	measure("SH-STT power reduction, small", 100*f6.Reduction(config.Small))
	measure("SH-STT power reduction, medium", 100*f6.Reduction(config.Medium))
	measure("SH-STT power reduction, large", 100*f6.Reduction(config.Large))

	if interrupted() {
		return s
	}

	// Performance (Figure 7).
	f7 := r.Figure7()
	add(f7.Render())
	measure("SH-STT execution time vs baseline", f7.Mean(config.SHSTT))
	measure("SH-STT vs SH-SRAM-Nom speed edge", 100*(1-f7.Mean(config.SHSTT)/f7.Mean(config.SHSRAMNom)))

	if interrupted() {
		return s
	}

	// Energy by scale (Figure 8).
	f8 := r.Figure8()
	add(f8.Render())
	measure("SH-STT energy, small/medium/large",
		f8.Normalized[config.Small][config.SHSTT],
		f8.Normalized[config.Medium][config.SHSTT],
		f8.Normalized[config.Large][config.SHSTT])

	if interrupted() {
		return s
	}

	// Energy per benchmark (Figure 9).
	f9 := r.Figure9()
	add(f9.Render())
	measure("SH-STT energy", f9.Mean(config.SHSTT))
	measure("SH-SRAM-Nom energy", f9.Mean(config.SHSRAMNom))
	measure("HP-SRAM-CMP energy", f9.Mean(config.HPSRAMCMP))
	measure("SH-STT-CC energy", f9.Mean(config.SHSTTCC))
	measure("SH-STT-CC-Oracle energy", f9.Mean(config.SHSTTCCOracle))
	measure("PR-STT-CC energy", f9.Mean(config.PRSTTCC))
	measure("SH-STT-CC-OS vs SH-STT", 100*(f9.Mean(config.SHSTTCCOS)/f9.Mean(config.SHSTT)-1))

	if interrupted() {
		return s
	}

	// Cluster-size sweep (Section V.D).
	sweep := r.ClusterSweep()
	add(sweep.Render())
	measure("optimal cluster size", float64(sweep.Best()))
	for _, row := range sweep.Rows {
		measure(fmt.Sprintf("time improvement at %d cores/cluster", row.ClusterSize), 100*row.SpeedupVsBase)
	}

	if interrupted() {
		return s
	}

	// Shared-cache behaviour (Figures 10 and 11).
	f10 := r.Figure10()
	add(f10.Render())
	measure("cache cycles with no request", 100*f10.Mean.Fraction(0))
	f11 := r.Figure11()
	add(f11.Render())
	measure("reads serviced in 1 core cycle", 100*f11.OneCycleFraction())
	measure("half-miss rate", 100*f11.HalfMissRate)

	if interrupted() {
		return s
	}

	// Consolidation traces (Figures 12 and 13).
	for _, bench := range []string{"radix", "lu"} {
		if !slices.Contains(r.Benches, bench) {
			continue
		}
		tr := r.ConsolidationTrace(bench)
		add(tr.Render())
		s.Claims = append(s.Claims, tr.Claim())
	}

	if interrupted() {
		return s
	}

	// Active cores (Figure 14).
	f14 := r.Figure14()
	add(f14.Render())
	measure("mean active cores per 16-core cluster", f14.MeanActive())

	return s
}

// Report renders the full evaluation with the claims table first.
func (s *Suite) Report() string {
	var b strings.Builder
	b.WriteString(RenderClaims("Paper vs measured (shape comparison)", s.Claims))
	b.WriteByte('\n')
	for _, sec := range s.Sections {
		b.WriteString(sec)
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON serialises the claims (for machine consumption; the sections
// remain human-oriented text) in the versioned v1 envelope and
// canonical encoding shared with every other machine-readable surface.
func (s *Suite) JSON() ([]byte, error) {
	return v1.EncodeBytes(struct {
		SchemaVersion string   `json:"schema_version"`
		Claims        []Claim  `json:"claims"`
		Sections      []string `json:"sections"`
	}{v1.SchemaVersion, s.Claims, s.Sections})
}
