package sim

import (
	"errors"
	"testing"

	"respin/internal/config"
	"respin/internal/endurance"
)

// hugeBudget is an endurance configuration whose budgets are far beyond
// any test run's write count and whose retention never expires a line
// in practice: the model observes without perturbing.
var hugeBudget = endurance.Params{Seed: 5, BudgetMean: 1e15}

func TestEnduranceOffBitIdentical(t *testing.T) {
	// The zero-value endurance params must reproduce the pre-endurance
	// run byte for byte: no tracker is built, no clocks advance.
	base := run(t, config.SHSTT, "fft", Options{Seed: 1})
	withZero := run(t, config.SHSTT, "fft", Options{Seed: 1,
		Endurance: endurance.Params{Seed: 42}})
	if keyOf(base) != keyOf(withZero) {
		t.Errorf("zero endurance params perturbed the run:\n base %+v\n with %+v",
			keyOf(base), keyOf(withZero))
	}
	if base.Stats != withZero.Stats {
		t.Errorf("zero endurance params perturbed counters")
	}
	if withZero.Endurance != nil {
		t.Error("disabled model produced a report")
	}
}

func TestEnduranceObservationOnly(t *testing.T) {
	// With budgets far beyond the run's writes and no retention, the
	// model is a pure observer: timing, work, and energy are unchanged.
	base := run(t, config.SHSTT, "radix", Options{Seed: 1})
	obs := run(t, config.SHSTT, "radix", Options{Seed: 1, Endurance: hugeBudget})
	if base.Cycles != obs.Cycles || base.Instructions != obs.Instructions {
		t.Errorf("observation-only endurance changed timing: %d/%d vs %d/%d cycles/instr",
			obs.Cycles, obs.Instructions, base.Cycles, base.Instructions)
	}
	if base.EnergyPJ != obs.EnergyPJ {
		t.Errorf("observation-only endurance changed energy: %.0f vs %.0f",
			obs.EnergyPJ, base.EnergyPJ)
	}
	rep := obs.Endurance
	if rep == nil {
		t.Fatal("enabled model produced no report")
	}
	if rep.Writes == 0 || len(rep.Arrays) == 0 {
		t.Fatalf("no wear observed: %+v", rep)
	}
	if rep.RetiredWays != 0 || rep.WoreOutAt != 0 {
		t.Fatalf("1e15 budget retired ways in a short run: %+v", rep)
	}
	if rep.MaxWearFracPct <= 0 || rep.ProjectedTTF <= float64(obs.Cycles) {
		t.Errorf("lifetime projection missing: frac %.9f%% ttf %.0f", rep.MaxWearFracPct, rep.ProjectedTTF)
	}
}

func TestEnduranceIgnoredOnSRAM(t *testing.T) {
	// The model is STT wear physics; an SRAM chip must not grow a
	// tracker even with endurance enabled.
	res := run(t, config.PRSRAMNT, "fft", Options{Seed: 1, Endurance: hugeBudget})
	if res.Endurance != nil {
		t.Fatalf("SRAM config produced an endurance report: %+v", res.Endurance)
	}
}

func TestRetentionScrubsRunAndCharge(t *testing.T) {
	base := run(t, config.SHSTT, "fft", Options{Seed: 1})
	res := run(t, config.SHSTT, "fft", Options{Seed: 1, Endurance: endurance.Params{
		Seed: 9, RetentionCycles: 20_000, ScrubPeriod: 5_000,
	}})
	rep := res.Endurance
	if rep == nil || rep.Scrubs == 0 {
		t.Fatalf("no scrub passes ran: %+v", rep)
	}
	if rep.ScrubRefreshes == 0 {
		t.Errorf("scrubs refreshed nothing: %+v", rep)
	}
	// Refreshes are real data-array writes: they cost energy.
	if res.EnergyPJ <= base.EnergyPJ {
		t.Errorf("scrub refreshes were free: %.0f vs base %.0f", res.EnergyPJ, base.EnergyPJ)
	}
	// The workload itself is unaffected — losses are re-fetched, never
	// dropped work.
	if res.Instructions != base.Instructions {
		t.Errorf("retention model lost work: %d vs %d instructions",
			res.Instructions, base.Instructions)
	}
}

func TestWearOutReturnsStructuredError(t *testing.T) {
	// Tiny budgets guarantee a set loses its last way quickly; the run
	// must end with a WearOutError and a partial result, never a panic.
	_, err := Run(config.New(config.SHSTT, config.Medium), "fft",
		Options{QuotaInstr: 30_000, Seed: 1, Endurance: endurance.Params{
			Seed: 9, BudgetMean: 4, BudgetSigma: 0.1,
		}})
	var werr *endurance.WearOutError
	if !errors.As(err, &werr) {
		t.Fatalf("got %T (%v), want *endurance.WearOutError", err, err)
	}
	if werr.Array == "" || werr.Cycle == 0 {
		t.Errorf("diagnostic incomplete: %+v", werr)
	}
	res, err2 := Run(config.New(config.SHSTT, config.Medium), "fft",
		Options{QuotaInstr: 30_000, Seed: 1, Endurance: endurance.Params{
			Seed: 9, BudgetMean: 4, BudgetSigma: 0.1,
		}})
	if !errors.As(err2, &werr) {
		t.Fatalf("wear-out not deterministic: %v", err2)
	}
	if res.Endurance == nil || res.Endurance.WoreOutAt == 0 {
		t.Fatalf("partial result lacks the wear-out report: %+v", res.Endurance)
	}
	if res.Cycles == 0 || res.Endurance.RetiredWays == 0 {
		t.Errorf("partial result empty: %d cycles, %+v", res.Cycles, res.Endurance)
	}
}

func TestEnduranceSeedDefaultsFromFaultSeed(t *testing.T) {
	o := Options{Endurance: endurance.Params{BudgetMean: 10}}
	o.Faults.Seed = 77
	if err := o.Normalize(); err != nil {
		t.Fatal(err)
	}
	if o.Endurance.Seed != 77 {
		t.Errorf("endurance seed = %d, want 77 (derived from fault seed)", o.Endurance.Seed)
	}
}
