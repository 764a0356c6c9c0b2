// Package faults is the chip-wide fault-injection engine: a
// deterministic, seed-driven source of the error events the paper's
// reliability argument (Section I) rests on, so that the simulator can
// *survive* and *measure* faults instead of merely computing their
// probabilities analytically (package reliability does that part).
//
// Three error mechanisms are modeled:
//
//   - Stochastic STT-RAM write failures. MTJ switching is thermally
//     activated, so a write pulse fails to flip the cell with a small
//     probability; relaxed-retention STT-RAM designs (ARC, and the
//     write-failure-aware schemes surveyed by Mittal) handle this with a
//     write-verify-and-retry loop. Package sharedcache re-arbitrates
//     failed writes through the controller; the L2/L3 write paths retry
//     in the array.
//
//   - Voltage-dependent SRAM read bit flips. Near-threshold SRAM cells
//     upset at exponentially increasing rates as Vdd falls (the
//     CellFailProb law of package reliability); each read of a protected
//     word draws a binomial flip count and the configured ECC scheme
//     either corrects it or detects an uncorrectable word.
//
//   - Hard core-kill faults. A physical core dies at a scheduled cycle;
//     the cluster's virtual core monitor survives by remapping virtual
//     cores around the dead core (graceful degradation).
//
// Determinism: the injector derives one private RNG stream per error
// mechanism from a single fault seed, so fault randomness never perturbs
// workload or arbitration randomness, and two runs with identical seeds
// produce bit-identical event sequences. With every rate at zero no
// stream is ever drawn from, so a zero-rate injector is behaviourally
// identical to no injector at all.
package faults

import (
	"fmt"
	"math"
	"sort"

	"respin/internal/reliability"
	"respin/internal/rng"
	"respin/internal/telemetry"
)

// Stream seed offsets: each mechanism gets an independent RNG derived
// from the fault seed, so adding draws to one mechanism cannot shift
// another's sequence.
const (
	sttStreamSalt       = 0x5151
	sramStreamSalt      = 0xECC0
	enduranceStreamSalt = 0xEDC5
)

// DeriveStreamSeed mixes the robustness seed and a per-unit salt into
// an independent stream seed, using the same derivation pattern as
// Injector.Derive but a mechanism salt and multiplier of its own so the
// resulting stream never collides with the per-cluster fault streams.
// Package endurance seeds its per-array budget RNGs through this, so
// budget sampling shares the fault layer's determinism guarantees: a
// pure function of (seed, salt), independent of evaluation order.
func DeriveStreamSeed(seed, salt int64) int64 {
	return seed*71 + enduranceStreamSalt + (salt+1)*2_860_486_313
}

// DefaultMaxWriteRetries bounds the write-verify-retry loop. Eight
// attempts drive the residual failure probability of a p=0.01 cell below
// 1e-16 — effectively the "bounded retries" point beyond which a real
// controller would declare the line bad.
const DefaultMaxWriteRetries = 8

// KillSpec schedules one hard core-kill fault.
type KillSpec struct {
	// Cluster and Core locate the physical core (cluster-local id).
	Cluster, Core int
	// Cycle is the cache cycle at which the core dies.
	Cycle uint64
}

// Params configures the injector. The zero value injects nothing.
type Params struct {
	// Seed drives all fault randomness. It is deliberately distinct
	// from sim.Options.Seed (workload/arbitration randomness); zero
	// selects 1.
	Seed int64
	// STTWriteFailProb is the per-attempt probability that an STT-RAM
	// write fails its verify pass and must be retried.
	STTWriteFailProb float64
	// MaxWriteRetries bounds the verify-retry loop; zero selects
	// DefaultMaxWriteRetries. After the bound the write is declared
	// aborted (counted, simulation continues — a real controller would
	// remap the line).
	MaxWriteRetries int
	// SRAMBitFlipPerCell is the per-cell, per-read probability that an
	// SRAM bit reads upset. Negative means "derive from the rail": the
	// caller substitutes reliability.CellFailProb at the cache Vdd.
	SRAMBitFlipPerCell float64
	// ECC is the scheme protecting SRAM words (NoECC leaves every upset
	// bit uncorrectable; the CLI defaults to SECDED).
	ECC reliability.ECC
	// HaltOnUncorrectable aborts the run on the first detected
	// uncorrectable word instead of counting and continuing.
	HaltOnUncorrectable bool
	// Kills schedules hard core-kill faults.
	Kills []KillSpec
}

// withDefaults resolves zero-value knobs.
func (p Params) withDefaults() Params {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.MaxWriteRetries <= 0 {
		p.MaxWriteRetries = DefaultMaxWriteRetries
	}
	return p
}

// Enabled reports whether the parameters inject any fault at all.
func (p Params) Enabled() bool {
	return p.STTWriteFailProb > 0 || p.SRAMBitFlipPerCell != 0 || len(p.Kills) > 0
}

// MaxRetryBound caps MaxWriteRetries: beyond a few hundred attempts a
// real controller has long since declared the line bad, and the
// verify-retry loop would otherwise dominate the simulation.
const MaxRetryBound = 1 << 10

// Validate checks rates, retry bounds, and kill coordinates against the
// chip shape. NaN and infinite rates are rejected explicitly — they
// would otherwise poison every downstream probability comparison
// silently (NaN compares false against everything).
func (p Params) Validate(numClusters, clusterSize int) error {
	if math.IsNaN(p.STTWriteFailProb) || math.IsInf(p.STTWriteFailProb, 0) {
		return fmt.Errorf("faults: STT write-fail probability %g is not finite", p.STTWriteFailProb)
	}
	if p.STTWriteFailProb < 0 || p.STTWriteFailProb >= 1 {
		return fmt.Errorf("faults: STT write-fail probability %g outside [0,1)", p.STTWriteFailProb)
	}
	// Negative SRAMBitFlipPerCell is meaningful ("derive from the
	// rail") but must still be finite.
	if math.IsNaN(p.SRAMBitFlipPerCell) || math.IsInf(p.SRAMBitFlipPerCell, 0) {
		return fmt.Errorf("faults: SRAM bit-flip probability %g is not finite", p.SRAMBitFlipPerCell)
	}
	if p.SRAMBitFlipPerCell >= 1 {
		return fmt.Errorf("faults: SRAM bit-flip probability %g must be below 1", p.SRAMBitFlipPerCell)
	}
	if p.MaxWriteRetries < 0 {
		return fmt.Errorf("faults: max write retries %d is negative (zero selects the default)", p.MaxWriteRetries)
	}
	if p.MaxWriteRetries > MaxRetryBound {
		return fmt.Errorf("faults: max write retries %d exceeds bound %d", p.MaxWriteRetries, MaxRetryBound)
	}
	for i, k := range p.Kills {
		if k.Cluster < 0 || k.Cluster >= numClusters {
			return fmt.Errorf("faults: kill %d targets cluster %d of %d", i, k.Cluster, numClusters)
		}
		if k.Core < 0 || k.Core >= clusterSize {
			return fmt.Errorf("faults: kill %d targets core %d of cluster size %d", i, k.Core, clusterSize)
		}
	}
	return nil
}

// Counts aggregates injected-fault events chip-wide. It is plain data so
// it can be embedded in sim.Result and compared across runs.
type Counts struct {
	// STTWriteFailures counts failed write-verify attempts;
	// STTWriteRetries counts the re-issued attempts they triggered
	// (equal unless a write exhausted its retry budget); STTWriteAborts
	// counts writes that hit MaxWriteRetries and gave up.
	STTWriteFailures uint64 `json:"stt_write_failures"`
	STTWriteRetries  uint64 `json:"stt_write_retries"`
	STTWriteAborts   uint64 `json:"stt_write_aborts"`
	// SRAMReadFlips counts reads that saw at least one upset bit;
	// SRAMCorrected and SRAMUncorrectable split them by ECC outcome.
	SRAMReadFlips     uint64 `json:"sram_read_flips"`
	SRAMCorrected     uint64 `json:"sram_corrected"`
	SRAMUncorrectable uint64 `json:"sram_uncorrectable"`
	// CoreKills counts hard core-kill faults delivered.
	CoreKills uint64 `json:"core_kills"`
}

// Any reports whether any fault event was recorded.
func (c Counts) Any() bool { return c != Counts{} }

// Injector is the chip-wide fault source. A nil *Injector is valid and
// injects nothing — every method is nil-receiver safe — so fault-free
// runs pay a single pointer test per hook.
//
// For parallel cluster stepping the chip injector acts as the root of a
// small tree: Derive hands each cluster a child injector with RNG
// streams of its own, so concurrent clusters never contend on (or
// reorder draws from) a shared stream, and a cluster's draw sequence
// depends only on its own event order. Snapshot, Uncorrectable and the
// telemetry counters aggregate over the whole tree.
type Injector struct {
	p    Params
	stt  *rng.Rand
	sram *rng.Rand
	// noFlip is (1-p)^wordLen, the probability a whole protected word
	// reads clean — precomputed so the common case costs one draw.
	noFlip  float64
	wordLen int
	kills   []KillSpec // sorted by cycle
	// children are the injectors handed out by Derive; the root
	// aggregates their counts. Only the root has children or kills.
	children []*Injector

	Counts Counts
}

// New builds an injector, or returns nil when the parameters inject
// nothing (so the zero-rate path is bit-identical to no injector).
func New(p Params) *Injector {
	if !p.Enabled() {
		return nil
	}
	p = p.withDefaults()
	in := &Injector{
		p:       p,
		stt:     rng.New(p.Seed*61 + sttStreamSalt),
		sram:    rng.New(p.Seed*67 + sramStreamSalt),
		wordLen: 64 + p.ECC.CheckBits(),
	}
	if p.SRAMBitFlipPerCell > 0 {
		in.noFlip = math.Pow(1-p.SRAMBitFlipPerCell, float64(in.wordLen))
	}
	in.kills = append(in.kills, p.Kills...)
	sort.SliceStable(in.kills, func(i, j int) bool { return in.kills[i].Cycle < in.kills[j].Cycle })
	return in
}

// Derive builds a child injector for one concurrently-stepped unit
// (conventionally a cluster, salted by its id). The child shares the
// parent's rates and ECC geometry but owns independent RNG streams
// seeded from (fault seed, salt), so its draw sequence is a pure
// function of its own event order — unaffected by how other units
// interleave. Children carry no kill schedule (kills are delivered by
// the chip scheduler through the root) and must not be Derived from
// again. A nil receiver derives nil, keeping the zero-rate fast path.
func (in *Injector) Derive(salt int64) *Injector {
	if in == nil {
		return nil
	}
	child := &Injector{
		p: in.p,
		// Distinct large odd multipliers keep sibling streams (and the
		// root's) from colliding for any (seed, salt) pair in practice.
		stt:     rng.New(in.p.Seed*61 + sttStreamSalt + (salt+1)*1_000_003),
		sram:    rng.New(in.p.Seed*67 + sramStreamSalt + (salt+1)*7_368_787),
		noFlip:  in.noFlip,
		wordLen: in.wordLen,
	}
	in.children = append(in.children, child)
	return child
}

// aggregate sums the receiver's counts with every derived child's.
func (in *Injector) aggregate() Counts {
	if in == nil {
		return Counts{}
	}
	c := in.Counts
	for _, ch := range in.children {
		c.STTWriteFailures += ch.Counts.STTWriteFailures
		c.STTWriteRetries += ch.Counts.STTWriteRetries
		c.STTWriteAborts += ch.Counts.STTWriteAborts
		c.SRAMReadFlips += ch.Counts.SRAMReadFlips
		c.SRAMCorrected += ch.Counts.SRAMCorrected
		c.SRAMUncorrectable += ch.Counts.SRAMUncorrectable
		c.CoreKills += ch.Counts.CoreKills
	}
	return c
}

// MaxWriteRetries returns the retry bound (default for a nil injector,
// so callers need not special-case).
func (in *Injector) MaxWriteRetries() int {
	if in == nil {
		return DefaultMaxWriteRetries
	}
	return in.p.MaxWriteRetries
}

// STTWriteFails draws one write-verify outcome: true means this attempt
// failed and must be retried. Never draws when the rate is zero.
func (in *Injector) STTWriteFails() bool {
	if in == nil || in.p.STTWriteFailProb <= 0 {
		return false
	}
	if in.stt.Float64() >= in.p.STTWriteFailProb {
		return false
	}
	in.Counts.STTWriteFailures++
	return true
}

// RecordWriteRetry counts one re-issued write attempt.
func (in *Injector) RecordWriteRetry() {
	if in != nil {
		in.Counts.STTWriteRetries++
	}
}

// RecordWriteAbort counts one write that exhausted its retry budget.
func (in *Injector) RecordWriteAbort() {
	if in != nil {
		in.Counts.STTWriteAborts++
	}
}

// ArrayWriteRetries models the in-array verify-retry loop of the L2/L3
// STT banks (no controller re-arbitration below the L1): it draws
// attempts until one verifies or the budget is spent and returns how
// many retries the write consumed. The caller extends latency and
// charges write energy once per retry.
func (in *Injector) ArrayWriteRetries() int {
	if in == nil || in.p.STTWriteFailProb <= 0 {
		return 0
	}
	retries := 0
	for in.STTWriteFails() {
		if retries == in.p.MaxWriteRetries {
			in.Counts.STTWriteAborts++
			break
		}
		retries++
		in.Counts.STTWriteRetries++
	}
	return retries
}

// ReadOutcome reports one SRAM word read under ECC.
type ReadOutcome int

// Read outcomes.
const (
	// ReadClean means no bit upset.
	ReadClean ReadOutcome = iota
	// ReadCorrected means the ECC scheme repaired every upset bit.
	ReadCorrected
	// ReadUncorrectable means more bits upset than the scheme corrects.
	ReadUncorrectable
)

// SRAMRead draws the fault outcome of one SRAM word read. The flip count
// is binomial over the protected word (data + check bits); the common
// clean case costs a single uniform draw.
func (in *Injector) SRAMRead() ReadOutcome {
	if in == nil || in.p.SRAMBitFlipPerCell <= 0 {
		return ReadClean
	}
	u := in.sram.Float64()
	if u < in.noFlip {
		return ReadClean
	}
	// Walk the binomial pmf past the zero-flip mass already consumed.
	p := in.p.SRAMBitFlipPerCell
	n := in.wordLen
	acc := in.noFlip
	pmf := in.noFlip
	flips := 0
	for flips < n && u >= acc {
		// pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/(1-p)
		pmf *= float64(n-flips) / float64(flips+1) * p / (1 - p)
		flips++
		acc += pmf
	}
	in.Counts.SRAMReadFlips++
	if flips <= in.p.ECC.Corrects() {
		in.Counts.SRAMCorrected++
		return ReadCorrected
	}
	in.Counts.SRAMUncorrectable++
	return ReadUncorrectable
}

// HaltOnUncorrectable reports the configured uncorrectable-word policy.
func (in *Injector) HaltOnUncorrectable() bool {
	return in != nil && in.p.HaltOnUncorrectable
}

// Uncorrectable reports whether any uncorrectable word was read by this
// injector or any derived child.
func (in *Injector) Uncorrectable() bool {
	if in == nil {
		return false
	}
	if in.Counts.SRAMUncorrectable > 0 {
		return true
	}
	for _, ch := range in.children {
		if ch.Counts.SRAMUncorrectable > 0 {
			return true
		}
	}
	return false
}

// NextKill returns the earliest scheduled kill not yet delivered, if any.
func (in *Injector) NextKill() (KillSpec, bool) {
	if in == nil || len(in.kills) == 0 {
		return KillSpec{}, false
	}
	return in.kills[0], true
}

// PopKill consumes the kill returned by NextKill and counts it.
func (in *Injector) PopKill() {
	if in == nil || len(in.kills) == 0 {
		return
	}
	in.kills = in.kills[1:]
	in.Counts.CoreKills++
}

// DropKill consumes the kill returned by NextKill without counting it
// (the cluster refused delivery: core already dead or last survivor).
func (in *Injector) DropKill() {
	if in == nil || len(in.kills) == 0 {
		return
	}
	in.kills = in.kills[1:]
}

// AttachTelemetry registers the injector's event counters into c
// (conventionally the run collector's "faults" child). Nil injectors
// and nil collectors are both no-ops; registration only captures
// closures, so telemetry never perturbs the fault RNG streams.
func (in *Injector) AttachTelemetry(c *telemetry.Collector) {
	if in == nil || !c.Enabled() {
		return
	}
	c.RegisterCounter("stt_write_failures", func() uint64 { return in.aggregate().STTWriteFailures })
	c.RegisterCounter("stt_write_retries", func() uint64 { return in.aggregate().STTWriteRetries })
	c.RegisterCounter("stt_write_aborts", func() uint64 { return in.aggregate().STTWriteAborts })
	c.RegisterCounter("sram_read_flips", func() uint64 { return in.aggregate().SRAMReadFlips })
	c.RegisterCounter("sram_corrected", func() uint64 { return in.aggregate().SRAMCorrected })
	c.RegisterCounter("sram_uncorrectable", func() uint64 { return in.aggregate().SRAMUncorrectable })
	c.RegisterCounter("core_kills", func() uint64 { return in.aggregate().CoreKills })
}

// Snapshot returns the event counts, derived children included (zero
// value for a nil injector).
func (in *Injector) Snapshot() Counts {
	return in.aggregate()
}

// StreamState is one RNG stream's checkpoint position.
type StreamState struct {
	Seed  int64
	Draws uint64
}

// InjectorState is the mutable state of an injector tree, for
// checkpointing. Rates, ECC geometry and derived probabilities are
// construction inputs; only stream positions, undelivered kills and the
// event counts need capturing. Children appear in Derive order, which
// the simulator fixes (one child per cluster, in cluster-id order).
type InjectorState struct {
	STT, SRAM StreamState
	Kills     []KillSpec
	Counts    Counts
	Children  []InjectorState
}

// State captures the injector tree's mutable state (zero value for nil).
func (in *Injector) State() InjectorState {
	if in == nil {
		return InjectorState{}
	}
	sttSeed, sttDraws := in.stt.State()
	sramSeed, sramDraws := in.sram.State()
	st := InjectorState{
		STT:    StreamState{sttSeed, sttDraws},
		SRAM:   StreamState{sramSeed, sramDraws},
		Kills:  append([]KillSpec(nil), in.kills...),
		Counts: in.Counts,
	}
	for _, ch := range in.children {
		st.Children = append(st.Children, ch.State())
	}
	return st
}

// RestoreState repositions a freshly built injector tree (same Params,
// same Derive sequence) to a captured state. A nil receiver accepts
// only the zero state.
func (in *Injector) RestoreState(st InjectorState) error {
	if in == nil {
		if len(st.Children) > 0 || len(st.Kills) > 0 || st.Counts.Any() {
			return fmt.Errorf("faults: restoring non-trivial state into a nil injector")
		}
		return nil
	}
	if len(st.Children) != len(in.children) {
		return fmt.Errorf("faults: restore has %d children, injector has %d", len(st.Children), len(in.children))
	}
	in.stt.Restore(st.STT.Seed, st.STT.Draws)
	in.sram.Restore(st.SRAM.Seed, st.SRAM.Draws)
	in.kills = append(in.kills[:0], st.Kills...)
	in.Counts = st.Counts
	for i, ch := range in.children {
		if err := ch.RestoreState(st.Children[i]); err != nil {
			return err
		}
	}
	return nil
}

// KillFirstN builds a kill schedule that kills cores 0..n-1 of every
// cluster at the given cycle — the CLI's -kill-cores convenience.
func KillFirstN(numClusters, n int, cycle uint64) []KillSpec {
	var kills []KillSpec
	for c := 0; c < numClusters; c++ {
		for i := 0; i < n; i++ {
			kills = append(kills, KillSpec{Cluster: c, Core: i, Cycle: cycle})
		}
	}
	return kills
}
