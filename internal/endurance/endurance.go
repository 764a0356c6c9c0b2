// Package endurance models the two permanent/latent failure modes of
// STT-RAM cache arrays that the stochastic fault layer (package faults)
// does not cover:
//
//   - Finite write endurance. MTJ cells survive a bounded number of
//     write cycles; process variation makes that bound lognormal across
//     cells (Mittal's write-endurance-aware RRAM management builds on
//     the same observation). The model tracks per-set write wear in
//     every STT array, samples a per-way endurance budget from a
//     seed-derived lognormal, and permanently *retires* a way once its
//     budget is exhausted: the array keeps operating at reduced
//     associativity, degrading capacity instead of failing. Only when a
//     set loses its last way does the run stop, with a structured
//     WearOutError rather than a panic.
//
//   - Relaxed retention. Scaling the MTJ thermal barrier down buys
//     write energy/latency at the cost of a finite retention time (the
//     ARC design point). Each line carries a retention deadline; a
//     background scrub walks the array and refreshes lines about to
//     expire, and a line that expires before the scrub reaches it is
//     lost — dirty losses are charged as a re-fetch by the enclosing
//     level's miss path.
//
// An optional epoch-based wear-leveling rotates the set-index mapping
// (Mittal-style remapping) so hot-set writes spread over the whole
// array; it is toggleable precisely so its lifetime benefit can be
// quantified by the endurance sweep.
//
// Determinism: per-way budgets are sampled eagerly at array
// construction time from an RNG seeded via faults.DeriveStreamSeed with
// a per-array salt — the same derivation scheme the fault injector uses
// for per-cluster streams — so budgets are a pure function of
// (seed, array identity) and independent of cluster stepping
// interleave. Nothing on the access path draws randomness: wear,
// retention and rotation are deterministic counters, preserving the
// epoch-length invariance of the epoch scheduler.
package endurance

import (
	"fmt"
	"math"
	"math/rand"

	"respin/internal/faults"
)

// Default knob values resolved by Params.Normalize.
const (
	// DefaultBudgetSigma is the sigma of the underlying normal of the
	// lognormal budget distribution (moderate process variation).
	DefaultBudgetSigma = 0.25
	// DefaultWearLevelPeriod is the number of array writes between
	// set-index rotations when wear-leveling is enabled.
	DefaultWearLevelPeriod = 1 << 15
)

// Params configures the endurance/retention model. The zero value
// disables it entirely.
type Params struct {
	// Seed drives budget sampling; zero means "derive from the fault
	// seed" (the caller substitutes it), and if that is also zero the
	// canonical seed 1 is used.
	Seed int64
	// BudgetMean is the mean per-way write budget of the lognormal
	// endurance distribution. Zero disables wear tracking and way
	// retirement. Real MTJ endurance is ~1e12 writes; sweeps use small
	// budgets so wear is observable within a run and project lifetime
	// from the observed wear rate.
	BudgetMean float64
	// BudgetSigma is the sigma of the underlying normal; zero selects
	// DefaultBudgetSigma.
	BudgetSigma float64
	// RetentionCycles is the per-line retention deadline in cache
	// cycles. Zero disables the retention model.
	RetentionCycles uint64
	// ScrubPeriod is the background scrub period in cache cycles; zero
	// selects RetentionCycles/2. Must not exceed RetentionCycles.
	ScrubPeriod uint64
	// WearLevel enables the epoch-based wear-leveling set-index
	// rotation.
	WearLevel bool
	// WearLevelPeriod is the number of array writes between rotations;
	// zero selects DefaultWearLevelPeriod.
	WearLevelPeriod uint64
}

// Enabled reports whether any part of the model is active.
func (p Params) Enabled() bool {
	return p.BudgetMean > 0 || p.RetentionCycles > 0
}

// Normalize validates the parameters and resolves zero-value knobs in
// place. It is idempotent.
func (p *Params) Normalize() error {
	if math.IsNaN(p.BudgetMean) || math.IsInf(p.BudgetMean, 0) || p.BudgetMean < 0 {
		return fmt.Errorf("endurance: budget mean %g must be finite and non-negative", p.BudgetMean)
	}
	if math.IsNaN(p.BudgetSigma) || math.IsInf(p.BudgetSigma, 0) || p.BudgetSigma < 0 {
		return fmt.Errorf("endurance: budget sigma %g must be finite and non-negative", p.BudgetSigma)
	}
	if p.BudgetSigma > 4 {
		return fmt.Errorf("endurance: budget sigma %g unreasonably large (max 4)", p.BudgetSigma)
	}
	if p.BudgetSigma == 0 {
		p.BudgetSigma = DefaultBudgetSigma
	}
	if p.RetentionCycles > 0 {
		if p.ScrubPeriod == 0 {
			p.ScrubPeriod = p.RetentionCycles / 2
			if p.ScrubPeriod == 0 {
				p.ScrubPeriod = 1
			}
		}
		if p.ScrubPeriod > p.RetentionCycles {
			return fmt.Errorf("endurance: scrub period %d exceeds retention %d cycles (lines would expire unscrubbed)",
				p.ScrubPeriod, p.RetentionCycles)
		}
	} else if p.ScrubPeriod > 0 {
		return fmt.Errorf("endurance: scrub period %d set without retention cycles", p.ScrubPeriod)
	}
	if p.WearLevel && p.WearLevelPeriod == 0 {
		p.WearLevelPeriod = DefaultWearLevelPeriod
	}
	if !p.WearLevel && p.WearLevelPeriod > 0 {
		return fmt.Errorf("endurance: wear-level period %d set without wear-leveling enabled", p.WearLevelPeriod)
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return nil
}

// WearOutError is the structured run-terminating diagnostic raised when
// a set loses its last way: the array can no longer hold any line
// mapping to that set, which a real controller would report as an
// end-of-life machine check. It is an error, never a panic — the
// simulator returns it with the partial result attached.
type WearOutError struct {
	// Array labels the worn-out array (e.g. "cluster2.l2", "l3").
	Array string
	// Set is the set index that lost its last way.
	Set int
	// Cycle is the cache cycle of the terminal retirement.
	Cycle uint64
}

// Error implements error.
func (e *WearOutError) Error() string {
	return fmt.Sprintf("endurance: array %s set %d lost its last way at cycle %d (end of life)",
		e.Array, e.Set, e.Cycle)
}

// Tracker is the chip-level root of the endurance model: it owns the
// normalized parameters, hands out per-array state, and aggregates
// wear for telemetry and the end-of-run report.
//
// Concurrency: arrays are mutated only by the goroutine stepping their
// owning cluster; the tracker's aggregate reads happen at serial points
// (epoch drain, end of run), matching the discipline of every other
// stats structure in the simulator.
type Tracker struct {
	p      Params
	arrays []*Array
	// cycles is the last chip cycle observed at a serial point, used by
	// the projected-lifetime telemetry gauge.
	cycles uint64
}

// NewTracker builds a tracker from normalized parameters (call
// Params.Normalize first; NewTracker panics on invalid parameters to
// surface programming errors early).
func NewTracker(p Params) *Tracker {
	if err := (&p).Normalize(); err != nil {
		panic(fmt.Sprintf("endurance: %v", err))
	}
	return &Tracker{p: p}
}

// Params returns the normalized model parameters.
func (t *Tracker) Params() Params {
	if t == nil {
		return Params{}
	}
	return t.p
}

// NewArray registers per-array endurance state for a sets x assoc tag
// array. The salt must be unique per array chip-wide (conventionally
// cluster*levels+level, with negative salts for chip-shared arrays);
// budgets depend only on (seed, salt), never on construction order.
// A nil tracker returns nil, and a nil *Array is safe everywhere.
func (t *Tracker) NewArray(label string, salt int64, sets, assoc int) *Array {
	if t == nil {
		return nil
	}
	a := &Array{
		t:     t,
		label: label,
		sets:  sets,
		assoc: assoc,
		wear:  make([]uint64, sets),
	}
	if t.p.BudgetMean > 0 {
		rng := rand.New(rand.NewSource(faults.DeriveStreamSeed(t.p.Seed, salt)))
		n := sets * assoc
		a.remaining = make([]uint64, n)
		a.initial = make([]uint64, n)
		a.retired = make([]bool, n)
		// Lognormal with the requested mean: if X = exp(mu + sigma*N),
		// E[X] = exp(mu + sigma^2/2), so mu = ln(mean) - sigma^2/2.
		mu := math.Log(t.p.BudgetMean) - t.p.BudgetSigma*t.p.BudgetSigma/2
		for i := range a.remaining {
			b := math.Exp(mu + t.p.BudgetSigma*rng.NormFloat64())
			if b < 1 {
				b = 1 // every way survives at least one write
			}
			if b > 1e18 {
				b = 1e18 // clamp: uint64-safe, far beyond any run length
			}
			a.remaining[i] = uint64(b)
			a.initial[i] = a.remaining[i]
		}
	}
	if t.p.RetentionCycles > 0 {
		a.nextScrub = t.p.ScrubPeriod
	}
	t.arrays = append(t.arrays, a)
	return a
}

// ObserveCycle records the chip cycle at a serial point; the
// projected-lifetime gauge and report use the latest observation.
func (t *Tracker) ObserveCycle(now uint64) {
	if t != nil && now > t.cycles {
		t.cycles = now
	}
}

// Exhausted returns the first wear-out (lowest cycle, ties broken by
// array registration order), or nil while every set still has a live
// way.
func (t *Tracker) Exhausted() *WearOutError {
	if t == nil {
		return nil
	}
	var first *WearOutError
	for _, a := range t.arrays {
		if a.exhausted != nil && (first == nil || a.exhausted.Cycle < first.Cycle) {
			first = a.exhausted
		}
	}
	return first
}

// Array holds the endurance/retention state of one cache tag array.
// All methods are nil-receiver safe so unattached caches pay a single
// pointer test.
type Array struct {
	t     *Tracker
	label string
	sets  int
	assoc int

	// remaining/initial are per-way write budgets (set-major); nil when
	// wear tracking is off. retired marks permanently dead ways.
	remaining []uint64
	initial   []uint64
	retired   []bool
	// wear counts cumulative data-array writes per set (always
	// allocated — it drives telemetry and the wear-leveling trigger).
	wear   []uint64
	writes uint64

	retiredWays  int
	retireLosses uint64 // valid lines lost to way retirement
	retireDirty  uint64 // ... of which dirty

	scrubs          uint64 // scrub passes completed
	scrubRefreshes  uint64 // lines refreshed by scrub
	retentionLosses uint64 // lines that expired before refresh
	retentionDirty  uint64 // ... of which dirty
	nextScrub       uint64

	rotations      uint64 // wear-leveling rotations performed
	rotationFlush  uint64 // writebacks forced by rotation flushes
	writesSinceRot uint64

	exhausted *WearOutError
}

// Label returns the array's chip-unique label.
func (a *Array) Label() string {
	if a == nil {
		return ""
	}
	return a.label
}

// WearEnabled reports whether write-budget tracking is active.
func (a *Array) WearEnabled() bool { return a != nil && a.remaining != nil }

// RetentionCycles returns the per-line retention deadline (0 = off).
func (a *Array) RetentionCycles() uint64 {
	if a == nil {
		return 0
	}
	return a.t.p.RetentionCycles
}

// ScrubPeriod returns the background scrub period (0 when retention is
// off).
func (a *Array) ScrubPeriod() uint64 {
	if a == nil || a.t.p.RetentionCycles == 0 {
		return 0
	}
	return a.t.p.ScrubPeriod
}

// Retired reports whether a way has been permanently retired.
func (a *Array) Retired(set, way int) bool {
	if a == nil || a.retired == nil {
		return false
	}
	return a.retired[set*a.assoc+way]
}

// RecordWrite charges one data-array write against (set, way) at the
// given cycle. It returns true when this write exhausted the way's
// budget: the way is now retired and the caller must drop the line it
// held (reporting the loss via RetireLoss).
func (a *Array) RecordWrite(set, way int, now uint64) (retiredNow bool) {
	if a == nil {
		return false
	}
	a.writes++
	a.wear[set]++
	if a.t.p.WearLevel {
		a.writesSinceRot++
	}
	if a.remaining == nil {
		return false
	}
	i := set*a.assoc + way
	if a.retired[i] { // defensive: writes must not target retired ways
		return false
	}
	a.remaining[i]--
	if a.remaining[i] > 0 {
		return false
	}
	a.retired[i] = true
	a.retiredWays++
	// If the set just lost its last live way the array is end-of-life
	// for every block mapping there.
	if a.exhausted == nil {
		live := 0
		for w := 0; w < a.assoc; w++ {
			if !a.retired[set*a.assoc+w] {
				live++
			}
		}
		if live == 0 {
			a.exhausted = &WearOutError{Array: a.label, Set: set, Cycle: now}
		}
	}
	return true
}

// RetireLoss accounts a valid line dropped because its way retired.
func (a *Array) RetireLoss(dirty bool) {
	if a == nil {
		return
	}
	a.retireLosses++
	if dirty {
		a.retireDirty++
	}
}

// RetentionLoss accounts a line that expired before a scrub refreshed
// it (lazily detected on access, eviction, or during the scrub walk).
func (a *Array) RetentionLoss(dirty bool) {
	if a == nil {
		return
	}
	a.retentionLosses++
	if dirty {
		a.retentionDirty++
	}
}

// ScrubDue reports whether the background scrub should run at now.
func (a *Array) ScrubDue(now uint64) bool {
	return a != nil && a.t.p.RetentionCycles > 0 && now >= a.nextScrub
}

// NextScrub returns the cycle of the next scheduled scrub pass
// (math.MaxUint64 when retention is off) so owners can clamp their
// idle fast-forward horizon and never skip over a scrub deadline.
func (a *Array) NextScrub() uint64 {
	if a == nil || a.t.p.RetentionCycles == 0 {
		return math.MaxUint64
	}
	return a.nextScrub
}

// ScrubDone records a completed scrub pass that refreshed n lines and
// schedules the next one.
func (a *Array) ScrubDone(now uint64, refreshed int) {
	if a == nil {
		return
	}
	a.scrubs++
	a.scrubRefreshes += uint64(refreshed)
	for a.nextScrub <= now {
		a.nextScrub += a.t.p.ScrubPeriod
	}
}

// RotationDue reports whether enough writes accrued to rotate the
// set-index mapping.
func (a *Array) RotationDue() bool {
	return a != nil && a.t.p.WearLevel && a.writesSinceRot >= a.t.p.WearLevelPeriod
}

// Rotated records a completed wear-leveling rotation and the dirty
// writebacks its array flush forced.
func (a *Array) Rotated(writebacks int) {
	if a == nil {
		return
	}
	a.rotations++
	a.rotationFlush += uint64(writebacks)
	a.writesSinceRot = 0
}

// Writes returns total data-array writes recorded.
func (a *Array) Writes() uint64 {
	if a == nil {
		return 0
	}
	return a.writes
}

// RetiredWays returns the number of permanently retired ways.
func (a *Array) RetiredWays() int {
	if a == nil {
		return 0
	}
	return a.retiredWays
}

// ArrayState is one array's mutable wear/retention state, for
// checkpointing. Budgets ("initial") are construction-derived — NewArray
// resamples them identically from (seed, salt) — so only the consumed
// state needs capturing.
type ArrayState struct {
	Remaining []uint64
	Retired   []bool
	Wear      []uint64
	Writes    uint64

	RetiredWays  int
	RetireLosses uint64
	RetireDirty  uint64

	Scrubs          uint64
	ScrubRefreshes  uint64
	RetentionLosses uint64
	RetentionDirty  uint64
	NextScrub       uint64

	Rotations      uint64
	RotationFlush  uint64
	WritesSinceRot uint64

	Exhausted *WearOutError
}

// TrackerState is the chip-level endurance state: one ArrayState per
// registered array, in registration order (which the simulator fixes).
type TrackerState struct {
	Cycles uint64
	Arrays []ArrayState
}

// State captures the tracker's mutable state (zero value for nil).
func (t *Tracker) State() TrackerState {
	if t == nil {
		return TrackerState{}
	}
	st := TrackerState{Cycles: t.cycles}
	for _, a := range t.arrays {
		as := ArrayState{
			Remaining:       append([]uint64(nil), a.remaining...),
			Retired:         append([]bool(nil), a.retired...),
			Wear:            append([]uint64(nil), a.wear...),
			Writes:          a.writes,
			RetiredWays:     a.retiredWays,
			RetireLosses:    a.retireLosses,
			RetireDirty:     a.retireDirty,
			Scrubs:          a.scrubs,
			ScrubRefreshes:  a.scrubRefreshes,
			RetentionLosses: a.retentionLosses,
			RetentionDirty:  a.retentionDirty,
			NextScrub:       a.nextScrub,
			Rotations:       a.rotations,
			RotationFlush:   a.rotationFlush,
			WritesSinceRot:  a.writesSinceRot,
		}
		if a.exhausted != nil {
			e := *a.exhausted
			as.Exhausted = &e
		}
		st.Arrays = append(st.Arrays, as)
	}
	return st
}

// RestoreState repositions a freshly built tracker (same Params, same
// NewArray sequence) to a captured state. A nil receiver accepts only
// the zero state.
func (t *Tracker) RestoreState(st TrackerState) error {
	if t == nil {
		if len(st.Arrays) > 0 {
			return fmt.Errorf("endurance: restoring %d arrays into a nil tracker", len(st.Arrays))
		}
		return nil
	}
	if len(st.Arrays) != len(t.arrays) {
		return fmt.Errorf("endurance: restore has %d arrays, tracker has %d", len(st.Arrays), len(t.arrays))
	}
	t.cycles = st.Cycles
	for i, a := range t.arrays {
		as := st.Arrays[i]
		if len(as.Remaining) != len(a.remaining) || len(as.Wear) != len(a.wear) {
			return fmt.Errorf("endurance: array %q geometry mismatch on restore", a.label)
		}
		copy(a.remaining, as.Remaining)
		copy(a.retired, as.Retired)
		copy(a.wear, as.Wear)
		a.writes = as.Writes
		a.retiredWays = as.RetiredWays
		a.retireLosses = as.RetireLosses
		a.retireDirty = as.RetireDirty
		a.scrubs = as.Scrubs
		a.scrubRefreshes = as.ScrubRefreshes
		a.retentionLosses = as.RetentionLosses
		a.retentionDirty = as.RetentionDirty
		a.nextScrub = as.NextScrub
		a.rotations = as.Rotations
		a.rotationFlush = as.RotationFlush
		a.writesSinceRot = as.WritesSinceRot
		a.exhausted = nil
		if as.Exhausted != nil {
			e := *as.Exhausted
			a.exhausted = &e
		}
	}
	return nil
}

// maxWearFrac returns the largest consumed fraction of any way's
// budget (1 for a retired way), or 0 when wear tracking is off.
func (a *Array) maxWearFrac() float64 {
	if a == nil || a.remaining == nil {
		return 0
	}
	frac := 0.0
	for i, rem := range a.remaining {
		f := 1 - float64(rem)/float64(a.initial[i])
		if a.retired[i] {
			f = 1
		}
		if f > frac {
			frac = f
		}
	}
	return frac
}

// setWear returns (max, mean) cumulative per-set write counts.
func (a *Array) setWear() (max uint64, mean float64) {
	if a == nil || len(a.wear) == 0 {
		return 0, 0
	}
	var sum uint64
	for _, w := range a.wear {
		sum += w
		if w > max {
			max = w
		}
	}
	return max, float64(sum) / float64(len(a.wear))
}
