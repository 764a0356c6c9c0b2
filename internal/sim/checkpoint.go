package sim

// Checkpoint/restore. A snapshot is taken only at an epoch-drain
// boundary — after drain() has answered the buffered L3 traffic,
// replayed the barrier logs and flushed buffered telemetry — because at
// that point every cross-cluster buffer is empty and the chip's state
// is exactly what a serial per-cycle run would hold at the same cycle.
// The snapshot captures only mutable state; the immutable structure
// (power model, cache geometry, energy scalars, telemetry
// registrations) is rebuilt by New from the same config, bench and
// options. Those ride along in the file, so RunOrResume resumes only
// the run the file holds; a resumed run is therefore bit-identical to
// an uninterrupted one.

import (
	"context"
	"encoding/json"
	"fmt"

	"respin/internal/checkpoint"
	"respin/internal/cluster"
	"respin/internal/config"
	"respin/internal/consolidation"
	"respin/internal/endurance"
	"respin/internal/faults"
	"respin/internal/mem"
	"respin/internal/power"
	"respin/internal/stats"
)

// SnapshotVersion is the checkpoint payload version. Bump it whenever
// chipSnapshot or any nested state structure changes incompatibly; old
// files are then refused with a structured version error instead of
// being mis-decoded, and their runs restart from cycle 0. DESIGN §4h
// keeps the history of the versions.
const SnapshotVersion = 4

// ModelVersion names the simulation model. Bump it by hand in any
// change that moves a simulated byte (TestModelVersionCanary fails
// until then): a checkpoint resumes only under the version that wrote
// it, and a run store another version stamped is cleared at its first
// use (package runstore).
const ModelVersion = 1

// CheckpointSpec configures checkpoint writes during a run; it is the
// spec argument of RunOrResume. The zero value disables checkpointing.
type CheckpointSpec struct {
	// Path is the checkpoint file; each write atomically replaces the
	// previous one (temp file + rename), so a crash mid-write leaves
	// the last complete checkpoint intact.
	Path string
	// EveryCycles writes a checkpoint at the first epoch boundary at or
	// after every multiple of this many cycles since the last write.
	EveryCycles uint64
	// AtCycle writes a single checkpoint at the first epoch boundary at
	// or after this cycle (used by the resume-identity tests to split a
	// run at a known point).
	AtCycle uint64
}

// Enabled reports whether the spec requests any checkpointing.
func (c CheckpointSpec) Enabled() bool { return c.Path != "" }

// validate rejects a path without a trigger and a trigger without a
// path.
func (c CheckpointSpec) validate() error {
	if c.Path != "" && c.EveryCycles == 0 && c.AtCycle == 0 {
		return fmt.Errorf("sim: checkpoint path %q set without a trigger (EveryCycles or AtCycle)", c.Path)
	}
	if c.Path == "" && (c.EveryCycles != 0 || c.AtCycle != 0) {
		return fmt.Errorf("sim: checkpoint trigger set without a path")
	}
	return nil
}

// DefaultCheckpointEvery is the checkpoint cadence the command-line
// tools default to: frequent enough that a crash loses at most a few
// epochs of progress. Writes are not free: one SH-STT/fft write costs
// about 6.3 ms on a 2-core Xeon host (BenchmarkCheckpointSave, DESIGN
// §4h), roughly 3% of the 100000 cycles it follows.
const DefaultCheckpointEvery uint64 = 100_000

// optionsWire is the subset of Options that defines the run and rides
// in the checkpoint. Telemetry is deliberately absent: it is an
// attachment re-chosen at resume time and never affects results.
type optionsWire struct {
	QuotaInstr         uint64
	Seed               int64
	MaxCycles          uint64
	EpochTrace         bool
	Faults             faults.Params
	Endurance          endurance.Params
	DisableFastForward bool
	EpochCycles        uint64
}

// wire is the run-defining part of the options.
func (o Options) wire() optionsWire {
	return optionsWire{
		QuotaInstr:         o.QuotaInstr,
		Seed:               o.Seed,
		MaxCycles:          o.MaxCycles,
		EpochTrace:         o.EpochTrace,
		Faults:             o.Faults,
		Endurance:          o.Endurance,
		DisableFastForward: o.DisableFastForward,
		EpochCycles:        o.EpochCycles,
	}
}

// runnerState is one clusterRunner's persistent scheduling state. The
// scratch buffers (epoch records, barrier logs, fast-forward deltas)
// are empty at a drain boundary and are not captured.
type runnerState struct {
	LastMtr  power.Meter
	LastCyc  uint64
	LastOS   uint64
	EpochIdx int
	// Barrier log cursors: the step's change detector and the drain's
	// replay cursor, equal at a drain boundary.
	LogW, LogU int
	RepW, RepU int
	// Mgr is the greedy consolidation search position; nil for the
	// stateless Oracle and Static policies.
	Mgr *consolidation.GreedyState
}

// chipSnapshot is the full checkpoint payload.
type chipSnapshot struct {
	// Model is the ModelVersion that wrote the snapshot; files written
	// before it existed decode as 0 and never resume.
	Model int
	Cfg   config.Config
	Bench string
	Opts  optionsWire

	// Now is the cycle the run resumes from; TelemetrySeq is the event
	// emitter's next sequence number, so a resumed event stream
	// continues exactly where the interrupted one stopped.
	Now          uint64
	TelemetrySeq uint64

	Clusters []cluster.State
	Runners  []runnerState

	L3           mem.CacheState
	L3NextFree   uint64
	DRAMAccesses stats.Counter
	L3Meter      power.Meter
	Faults       faults.InjectorState
	Endurance    endurance.TrackerState

	Trace     stats.TimeSeries
	ActiveSum stats.Summary

	BarrierPending bool
	TotWaiting     int
	TotUnfinished  int

	FFSkipped, FFJumps                       uint64
	SchedEpochs, SchedDrained, SchedDegrades uint64
}

// snapshot captures the chip at cycle now (an epoch-drain boundary).
func (s *Sim) snapshot(now uint64) (*chipSnapshot, error) {
	st := &chipSnapshot{
		Model:          ModelVersion,
		Cfg:            s.cfg,
		Bench:          s.bench.Name,
		Opts:           s.opts.wire(),
		Now:            now,
		TelemetrySeq:   s.tel.Emitter().Seq(),
		L3:             s.l3.Snapshot(),
		L3NextFree:     s.l3NextFree,
		DRAMAccesses:   s.dram.Accesses,
		L3Meter:        s.l3Meter,
		Faults:         s.faults.State(),
		Endurance:      s.endur.State(),
		Trace:          s.trace,
		ActiveSum:      s.activeSum,
		BarrierPending: s.barrierPending,
		TotWaiting:     s.totWaiting,
		TotUnfinished:  s.totUnfinished,
		FFSkipped:      s.ffSkipped,
		FFJumps:        s.ffJumps,
		SchedEpochs:    s.schedEpochs,
		SchedDrained:   s.schedDrained,
		SchedDegrades:  s.schedDegrades,
	}
	for _, cr := range s.crs {
		cs, err := cr.cl.Snapshot()
		if err != nil {
			return nil, err
		}
		st.Clusters = append(st.Clusters, cs)
		rs := runnerState{
			LastMtr:  cr.lastMtr,
			LastCyc:  cr.lastCyc,
			LastOS:   cr.lastOS,
			EpochIdx: cr.epochIdx,
			LogW:     cr.logW, LogU: cr.logU,
			RepW: cr.repW, RepU: cr.repU,
		}
		if g, ok := cr.mgr.(*consolidation.Greedy); ok {
			gs := g.State()
			rs.Mgr = &gs
		}
		st.Runners = append(st.Runners, rs)
	}
	return st, nil
}

// restore repositions a freshly built Sim (same config, bench and run
// options) to a captured state. Telemetry-registered pointers keep
// their identity; the event emitter continues the captured stream.
func (s *Sim) restore(st *chipSnapshot) error {
	if len(st.Clusters) != len(s.crs) || len(st.Runners) != len(s.crs) {
		return fmt.Errorf("sim: checkpoint has %d clusters / %d runners, sim has %d",
			len(st.Clusters), len(st.Runners), len(s.crs))
	}
	for i, cr := range s.crs {
		if err := cr.cl.Restore(st.Clusters[i]); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		rs := st.Runners[i]
		cr.lastMtr = rs.LastMtr
		cr.lastCyc = rs.LastCyc
		cr.lastOS = rs.LastOS
		cr.epochIdx = rs.EpochIdx
		cr.logW, cr.logU = rs.LogW, rs.LogU
		cr.repW, cr.repU = rs.RepW, rs.RepU
		if rs.Mgr != nil {
			g, ok := cr.mgr.(*consolidation.Greedy)
			if !ok {
				return fmt.Errorf("sim: checkpoint has greedy state for cluster %d but policy is %T", i, cr.mgr)
			}
			g.Restore(*rs.Mgr)
		}
	}
	if err := s.l3.Restore(st.L3); err != nil {
		return fmt.Errorf("sim: l3: %w", err)
	}
	s.l3NextFree = st.L3NextFree
	s.dram.Accesses = st.DRAMAccesses
	s.l3Meter = st.L3Meter
	if err := s.faults.RestoreState(st.Faults); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := s.endur.RestoreState(st.Endurance); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	s.trace = st.Trace
	s.activeSum = st.ActiveSum
	s.barrierPending = st.BarrierPending
	s.totWaiting = st.TotWaiting
	s.totUnfinished = st.TotUnfinished
	s.ffSkipped, s.ffJumps = st.FFSkipped, st.FFJumps
	s.schedEpochs, s.schedDrained, s.schedDegrades = st.SchedEpochs, st.SchedDrained, st.SchedDegrades
	s.tel.Emitter().SetSeq(st.TelemetrySeq)
	s.startCycle = st.Now
	s.lastCkpt = st.Now
	s.resumed = true
	return nil
}

// maybeCheckpoint writes a checkpoint if the spec says one is due at
// cycle now. Called at the end of each epoch iteration, where every
// cluster sits at a drain boundary with empty cross-cluster buffers.
// Snapshotting reads state without mutating it, so a checkpointing run
// produces results byte-identical to a run without checkpoints.
func (s *Sim) maybeCheckpoint(now uint64) error {
	spec := s.ckpt
	if !spec.Enabled() {
		return nil
	}
	due := false
	if spec.AtCycle > 0 && !s.ckptAtDone && now >= spec.AtCycle {
		due = true
		s.ckptAtDone = true
	}
	if spec.EveryCycles > 0 && now >= s.lastCkpt+spec.EveryCycles {
		due = true
	}
	if !due {
		return nil
	}
	s.lastCkpt = now
	return s.WriteCheckpoint(spec.Path, now)
}

// WriteCheckpoint snapshots the chip at cycle now into path. The sim
// must be at an epoch-drain boundary (it always is between RunContext
// iterations; external callers should prefer RunOrResume's spec).
func (s *Sim) WriteCheckpoint(path string, now uint64) error {
	st, err := s.snapshot(now)
	if err != nil {
		return err
	}
	return s.ckptW.Save(path, SnapshotVersion, st)
}

// loadSnapshot reads, verifies and decodes a checkpoint file.
func loadSnapshot(path string) (*chipSnapshot, error) {
	st := new(chipSnapshot)
	if err := checkpoint.Load(path, SnapshotVersion, st); err != nil {
		return nil, err
	}
	return st, nil
}

// RunOrResume executes one simulation with crash recovery. It is the
// only way to checkpoint a run and the only way to continue one: when
// spec.Path holds a checkpoint of this same run under this model
// (Info.Holds) the run resumes from the captured cycle; otherwise it
// starts at cycle 0. Either way it writes checkpoints to spec.Path as
// spec says, so a run interrupted again resumes from its latest
// checkpoint. A missing, damaged, old-version, other-model or other-run
// checkpoint costs a restart from cycle 0, never an error; so does one
// whose restored state makes the simulator panic. The result is
// bit-identical to an uninterrupted run, so callers (the run store's
// users, the CLI tools) can re-execute after a crash and converge to
// the same bytes. from is the cycle the run continued from, 0 when it
// started at cycle 0; the checkpoint is decoded once either way.
func RunOrResume(ctx context.Context, cfg config.Config, bench string, opts Options, spec CheckpointSpec) (res Result, from uint64, err error) {
	if err := spec.validate(); err != nil {
		return Result{}, 0, err
	}
	seq := opts.Telemetry.Emitter().Seq()
	if res, from, err := resumeAndRun(ctx, cfg, bench, opts, spec); from > 0 {
		return res, from, err
	}
	opts.Telemetry.Emitter().SetSeq(seq)
	s, err := New(cfg, bench, opts)
	if err != nil {
		return Result{}, 0, err
	}
	s.ckpt = spec
	res, err = s.RunContext(ctx)
	return res, 0, err
}

// resumeAndRun resumes the run from the checkpoint in spec.Path and
// runs it to the end; from is the checkpoint's cycle, or 0 when there
// is nothing to resume or the restored state makes the simulator panic
// (a valid checksum over parts that contradict each other is a damaged
// checkpoint too).
func resumeAndRun(ctx context.Context, cfg config.Config, bench string, opts Options, spec CheckpointSpec) (res Result, from uint64, err error) {
	defer func() {
		if recover() != nil {
			res, from, err = Result{}, 0, nil
		}
	}()
	s, err := resume(spec.Path, cfg, bench, opts)
	if err != nil {
		return Result{}, 0, nil
	}
	from = s.startCycle
	s.ckpt = spec
	res, err = s.RunContext(ctx)
	return res, from, err
}

// resume builds the run cfg, bench and opts define and repositions it
// at the cycle of the checkpoint in path. It fails unless path holds a
// checkpoint of that run. The file is decoded once: the match and the
// restore share the snapshot. The telemetry collector in opts continues
// the captured event stream.
func resume(path string, cfg config.Config, bench string, opts Options) (*Sim, error) {
	st, err := loadSnapshot(path)
	if err != nil {
		return nil, err
	}
	if !st.info().Holds(cfg, bench, opts) {
		return nil, fmt.Errorf("sim: %s holds another run", path)
	}
	s, err := New(cfg, bench, opts)
	if err != nil {
		return nil, err
	}
	if err := s.restore(st); err != nil {
		return nil, err
	}
	return s, nil
}

// Info describes a checkpoint file without rebuilding the simulation.
type Info struct {
	Cycle        uint64
	Config       config.Config
	Bench        string
	TelemetrySeq uint64

	model int
	opts  optionsWire
}

// Holds reports whether the checkpoint belongs to the run that cfg,
// bench and opts define under the current model. This is the one match
// rule: the model version must be the current one and the checkpoint's
// run key must equal RunKey(cfg, bench, opts), so the whole
// configuration, the benchmark and every run-defining option are
// compared after the defaulting New applies (Options.resolve).
// Telemetry is an attachment, not part of the run, and is ignored.
func (i Info) Holds(cfg config.Config, bench string, opts Options) bool {
	if i.model != ModelVersion {
		return false
	}
	want, err := RunKey(cfg, bench, opts)
	if err != nil {
		return false
	}
	have, err := runKey(i.Config, i.Bench, i.opts)
	return err == nil && have == want
}

// RunKey is the identity, as JSON text, of the run cfg, bench and opts
// define: exactly what Holds compares besides the model version. Equal
// keys give equal results under one ModelVersion, but for
// Result.Metrics, which is present only when a collector is attached.
func RunKey(cfg config.Config, bench string, opts Options) (string, error) {
	if err := opts.resolve(cfg); err != nil {
		return "", err
	}
	return runKey(cfg, bench, opts.wire())
}

// runKey is the key of a run whose options are already resolved.
func runKey(cfg config.Config, bench string, opts optionsWire) (string, error) {
	key, err := json.Marshal([]any{cfg, bench, opts})
	if err != nil {
		return "", fmt.Errorf("sim: run key: %w", err)
	}
	return string(key), nil
}

// info is the snapshot's identity and position.
func (st *chipSnapshot) info() Info {
	return Info{
		Cycle:        st.Now,
		Config:       st.Cfg,
		Bench:        st.Bench,
		TelemetrySeq: st.TelemetrySeq,
		model:        st.Model,
		opts:         st.Opts,
	}
}

// CheckpointInfo reads a checkpoint's identity and position.
func CheckpointInfo(path string) (Info, error) {
	st, err := loadSnapshot(path)
	if err != nil {
		return Info{}, err
	}
	return st.info(), nil
}
