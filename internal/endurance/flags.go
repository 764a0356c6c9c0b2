package endurance

import "flag"

// Flags holds the endurance/retention command-line knobs shared by the
// cmd tools; BindTo registers them and Params resolves them. All
// defaults disable the model, so tools behave bit-identically to their
// pre-endurance versions unless an endurance flag is given.
type Flags struct {
	Budget          float64
	Sigma           float64
	RetentionCycles uint64
	ScrubPeriod     uint64
	WearLevel       bool
	WearLevelPeriod uint64
}

// BindTo registers the endurance flags on fs (how internal/cli composes
// them into the shared CLI surface).
func BindTo(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.Float64Var(&f.Budget, "endurance-budget", 0,
		"mean per-way STT write-endurance budget (lognormal); 0 disables wear tracking")
	fs.Float64Var(&f.Sigma, "endurance-sigma", 0,
		"lognormal sigma of the endurance budget distribution; 0 selects the default")
	fs.Uint64Var(&f.RetentionCycles, "retention-cycles", 0,
		"relaxed-retention STT line lifetime in cache cycles; 0 disables the retention model")
	fs.Uint64Var(&f.ScrubPeriod, "scrub-period", 0,
		"background scrub period in cache cycles; 0 selects retention/2")
	fs.BoolVar(&f.WearLevel, "wear-level", false,
		"enable epoch-based wear-leveling set-index rotation")
	fs.Uint64Var(&f.WearLevelPeriod, "wear-period", 0,
		"array writes between wear-leveling rotations; 0 selects the default")
	return f
}

// Params resolves the flags into model parameters; the seed is derived
// from the fault seed so one knob controls all robustness randomness.
// Validation happens in Params.Normalize at sim construction. A nil
// receiver (flags never registered) resolves to the disabled model.
func (f *Flags) Params(faultSeed int64) Params {
	if f == nil {
		return Params{Seed: faultSeed}
	}
	return Params{
		Seed:            faultSeed,
		BudgetMean:      f.Budget,
		BudgetSigma:     f.Sigma,
		RetentionCycles: f.RetentionCycles,
		ScrubPeriod:     f.ScrubPeriod,
		WearLevel:       f.WearLevel,
		WearLevelPeriod: f.WearLevelPeriod,
	}
}
