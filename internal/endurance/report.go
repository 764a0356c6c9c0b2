package endurance

// ArrayReport is the end-of-run wear summary of one cache array.
type ArrayReport struct {
	Label       string  `json:"label"`
	Sets        int     `json:"sets"`
	Assoc       int     `json:"assoc"`
	Writes      uint64  `json:"writes"`
	MaxSetWear  uint64  `json:"max_set_wear"`
	MeanSetWear float64 `json:"mean_set_wear"`
	// MaxWearFracPct is the most-consumed way's budget percentage (100
	// once a way retired); 0 when wear tracking is off.
	MaxWearFracPct  float64 `json:"max_wear_frac_pct"`
	RetiredWays     int     `json:"retired_ways"`
	Scrubs          uint64  `json:"scrubs,omitempty"`
	ScrubRefreshes  uint64  `json:"scrub_refreshes,omitempty"`
	RetentionLosses uint64  `json:"retention_losses,omitempty"`
	RetentionDirty  uint64  `json:"retention_losses_dirty,omitempty"`
	Rotations       uint64  `json:"rotations,omitempty"`
}

// Report is the chip-wide endurance summary embedded in sim.Result.
type Report struct {
	// BudgetMean/RetentionCycles echo the model configuration so a
	// report is self-describing.
	BudgetMean      float64 `json:"budget_mean,omitempty"`
	RetentionCycles uint64  `json:"retention_cycles,omitempty"`
	WearLevel       bool    `json:"wear_level,omitempty"`

	Writes          uint64  `json:"writes"`
	RetiredWays     int     `json:"retired_ways"`
	TotalWays       int     `json:"total_ways"`
	MaxSetWear      uint64  `json:"max_set_wear"`
	MaxWearFracPct  float64 `json:"max_wear_frac_pct"`
	RetireLosses    uint64  `json:"retire_losses"`
	RetireDirty     uint64  `json:"retire_losses_dirty"`
	Scrubs          uint64  `json:"scrubs"`
	ScrubRefreshes  uint64  `json:"scrub_refreshes"`
	RetentionLosses uint64  `json:"retention_losses"`
	RetentionDirty  uint64  `json:"retention_losses_dirty"`
	Rotations       uint64  `json:"rotations"`
	RotationFlushWB uint64  `json:"rotation_flush_writebacks"`

	// ProjectedTTF is the projected time to first way retirement in
	// cache cycles, extrapolated linearly from the most-worn way's
	// consumption rate over the observed run. If a way already retired
	// it is the cycle count at that point; 0 means no wear was observed
	// (no projection possible).
	ProjectedTTF float64 `json:"projected_ttf_cycles,omitempty"`

	// WoreOut is set when the run terminated because a set lost its
	// last way.
	WoreOut *WearOutError `json:"-"`
	// WoreOutAt is the wear-out cycle (0 = none), kept separately so
	// the JSON form stays plain data.
	WoreOutAt uint64 `json:"wore_out_at_cycle,omitempty"`

	Arrays []ArrayReport `json:"arrays,omitempty"`
}

// projectTTF extrapolates time-to-first-retirement from the worst way's
// consumed budget fraction after cycles of simulated time.
func projectTTF(maxFrac float64, cycles uint64) float64 {
	if maxFrac <= 0 || cycles == 0 {
		return 0
	}
	if maxFrac >= 1 {
		return float64(cycles)
	}
	return float64(cycles) / maxFrac
}

// Report assembles the chip-wide summary after cycles of simulated
// time. A nil tracker reports nil, keeping endurance-off results
// byte-identical to pre-endurance output.
func (t *Tracker) Report(cycles uint64) *Report {
	if t == nil {
		return nil
	}
	r := &Report{
		BudgetMean:      t.p.BudgetMean,
		RetentionCycles: t.p.RetentionCycles,
		WearLevel:       t.p.WearLevel,
	}
	var maxFrac float64
	for _, a := range t.arrays {
		maxW, meanW := a.setWear()
		frac := a.maxWearFrac()
		ar := ArrayReport{
			Label:           a.label,
			Sets:            a.sets,
			Assoc:           a.assoc,
			Writes:          a.writes,
			MaxSetWear:      maxW,
			MeanSetWear:     meanW,
			MaxWearFracPct:  frac * 100,
			RetiredWays:     a.retiredWays,
			Scrubs:          a.scrubs,
			ScrubRefreshes:  a.scrubRefreshes,
			RetentionLosses: a.retentionLosses,
			RetentionDirty:  a.retentionDirty,
			Rotations:       a.rotations,
		}
		r.Arrays = append(r.Arrays, ar)
		r.Writes += a.writes
		r.RetiredWays += a.retiredWays
		r.TotalWays += a.sets * a.assoc
		if maxW > r.MaxSetWear {
			r.MaxSetWear = maxW
		}
		if frac > maxFrac {
			maxFrac = frac
		}
		r.RetireLosses += a.retireLosses
		r.RetireDirty += a.retireDirty
		r.Scrubs += a.scrubs
		r.ScrubRefreshes += a.scrubRefreshes
		r.RetentionLosses += a.retentionLosses
		r.RetentionDirty += a.retentionDirty
		r.Rotations += a.rotations
		r.RotationFlushWB += a.rotationFlush
	}
	r.MaxWearFracPct = maxFrac * 100
	r.ProjectedTTF = projectTTF(maxFrac, cycles)
	if ex := t.Exhausted(); ex != nil {
		r.WoreOut = ex
		r.WoreOutAt = ex.Cycle
	}
	return r
}
