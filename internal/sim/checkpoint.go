package sim

// Checkpoint/restore. A snapshot is taken only at an epoch-drain
// boundary — after drain() has answered the buffered L3 traffic,
// replayed the barrier logs and flushed buffered telemetry — because at
// that point every cross-cluster buffer is empty and the chip's state
// is exactly what a serial per-cycle run would hold at the same cycle.
// The snapshot captures only mutable state; the immutable structure
// (power model, cache geometry, energy scalars, telemetry
// registrations) is rebuilt by New from the same config, bench and
// options, which ride along in the file. Resume is therefore
// bit-identical to an uninterrupted run.

import (
	"context"
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
	"respin/internal/telemetry"
)

// SnapshotVersion is the checkpoint payload version. Bump it whenever
// chipSnapshot or any nested state structure changes incompatibly; old
// files are then refused with a structured version error instead of
// being mis-decoded. Version 2 made the cache arrays sparse
// (mem.CacheState lists only the ways a run touched). Version 3 encodes
// the cache arrays, the coherence directory, statistics and energy
// meters as flat binary records instead of reflective gob, and drops
// the debug-only load fields from cluster.VCoreState. Version 4 stores
// each cache way's LRU rank instead of a 64-bit stamp and the cache's
// stamp clock, and write stamps only for arrays that model retention.
// Older files are refused and their runs restart from cycle 0.
const SnapshotVersion = 4

// CheckpointSpec configures checkpoint writes during a run. The zero
// value disables checkpointing.
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

// DefaultCheckpointEvery is the checkpoint cadence the command-line
// tools default to: frequent enough that a crash loses at most a few
// epochs of progress. Writes are not free. BenchmarkCheckpointSave on a
// 2-core Xeon host, medium chip finished at quota 10000, medians of 5,
// measures one write at 6.3 ms and 0.72 MB for SH-STT/fft and 13.2 ms
// and 1.2 MB for PR-SRAM-NT/ocean. Snapshot version 2 (full-column
// scans, reflective gob) cost 18.4 ms / 0.92 MB and 41.1 ms / 1.8 MB on
// the same host; dense arrays (version 1) cost 43–45 ms / 6.5 MB and
// 52–56 ms / 7.1 MB. The host simulates 100000 SH-STT/fft cycles in
// about 0.2 s, so at this cadence a write adds roughly 3%; at the serve
// journal's 20000 cycles, roughly 15%.
const DefaultCheckpointEvery uint64 = 100_000

// optionsWire is the subset of Options that defines the run and rides
// in the checkpoint. Attachments (Telemetry, Checkpoint) are
// deliberately absent: they are re-chosen at resume time and must not
// affect results.
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

// options reconstitutes run Options from the wire form.
func (w optionsWire) options() Options {
	return Options{
		QuotaInstr:         w.QuotaInstr,
		Seed:               w.Seed,
		MaxCycles:          w.MaxCycles,
		EpochTrace:         w.EpochTrace,
		Faults:             w.Faults,
		Endurance:          w.Endurance,
		DisableFastForward: w.DisableFastForward,
		EpochCycles:        w.EpochCycles,
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
		Cfg:   s.cfg,
		Bench: s.bench.Name,
		Opts: optionsWire{
			QuotaInstr:         s.opts.QuotaInstr,
			Seed:               s.opts.Seed,
			MaxCycles:          s.opts.MaxCycles,
			EpochTrace:         s.opts.EpochTrace,
			Faults:             s.opts.Faults,
			Endurance:          s.opts.Endurance,
			DisableFastForward: s.opts.DisableFastForward,
			EpochCycles:        s.opts.EpochCycles,
		},
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
	spec := s.opts.Checkpoint
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
// iterations; external callers should prefer Options.Checkpoint).
func (s *Sim) WriteCheckpoint(path string, now uint64) error {
	st, err := s.snapshot(now)
	if err != nil {
		return err
	}
	return s.ckptW.Save(path, SnapshotVersion, st)
}

// ResumeOption adjusts resume-time attachments that are not part of
// the checkpointed run definition.
type ResumeOption func(*resumeConfig)

type resumeConfig struct {
	tel  *telemetry.Collector
	ckpt CheckpointSpec
}

// WithTelemetry attaches a telemetry collector to the resumed run. The
// event stream continues at the checkpoint's sequence number, so
// concatenating the interrupted run's events before the checkpoint with
// the resumed run's events reproduces the uninterrupted stream.
func WithTelemetry(t *telemetry.Collector) ResumeOption {
	return func(rc *resumeConfig) { rc.tel = t }
}

// WithCheckpoint re-arms checkpointing on the resumed run, typically at
// the same path so the run keeps its crash-recovery point current.
func WithCheckpoint(spec CheckpointSpec) ResumeOption {
	return func(rc *resumeConfig) { rc.ckpt = spec }
}

// Resume rebuilds a simulation from a checkpoint file. The returned Sim
// continues from the captured cycle when run; its Result and telemetry
// events are byte-identical to what the uninterrupted run would have
// produced from that point.
func Resume(path string, ropts ...ResumeOption) (*Sim, error) {
	st, err := loadSnapshot(path)
	if err != nil {
		return nil, err
	}
	return resumeFrom(st, ropts...)
}

// loadSnapshot reads, verifies and decodes a checkpoint file.
func loadSnapshot(path string) (*chipSnapshot, error) {
	st := new(chipSnapshot)
	if err := checkpoint.Load(path, SnapshotVersion, st); err != nil {
		return nil, err
	}
	return st, nil
}

// resumeFrom rebuilds a simulation from a decoded snapshot, so a caller
// that already inspected the snapshot does not decode the file twice.
func resumeFrom(st *chipSnapshot, ropts ...ResumeOption) (*Sim, error) {
	var rc resumeConfig
	for _, o := range ropts {
		o(&rc)
	}
	opts := st.Opts.options()
	opts.Telemetry = rc.tel
	opts.Checkpoint = rc.ckpt
	s, err := New(st.Cfg, st.Bench, opts)
	if err != nil {
		return nil, err
	}
	if err := s.restore(st); err != nil {
		return nil, err
	}
	return s, nil
}

// RunOrResume executes one simulation with crash recovery: when
// spec.Path holds a checkpoint written by this same run — identity-
// checked on benchmark, configuration point, seed and quota — the run
// resumes from the captured cycle; otherwise it starts fresh with
// checkpointing armed. A missing, damaged or mismatched checkpoint
// costs a restart from cycle 0, never an error. Either way the result
// is bit-identical to an uninterrupted run, so callers (the serve
// journal, the sweep tools) can re-execute after a crash and converge
// to the same bytes. The file is decoded once: the identity check and
// the rebuild share the same snapshot.
func RunOrResume(ctx context.Context, cfg config.Config, bench string, opts Options, spec CheckpointSpec) (Result, error) {
	if spec.Enabled() {
		if st, err := loadSnapshot(spec.Path); err == nil &&
			st.Bench == bench &&
			st.Cfg.Kind == cfg.Kind && st.Cfg.Scale == cfg.Scale &&
			st.Cfg.ClusterSize == cfg.ClusterSize &&
			st.Opts.Seed == opts.Seed && st.Opts.QuotaInstr == opts.QuotaInstr {
			s, err := resumeFrom(st, WithTelemetry(opts.Telemetry), WithCheckpoint(spec))
			if err == nil {
				return s.RunContext(ctx)
			}
		}
	}
	opts.Checkpoint = spec
	return RunContext(ctx, cfg, bench, opts)
}

// Info describes a checkpoint file without rebuilding the simulation.
type Info struct {
	Cycle        uint64
	Config       config.Config
	Bench        string
	Seed         int64
	QuotaInstr   uint64
	TelemetrySeq uint64
}

// CheckpointInfo reads a checkpoint's identity and position.
func CheckpointInfo(path string) (Info, error) {
	st, err := loadSnapshot(path)
	if err != nil {
		return Info{}, err
	}
	return Info{
		Cycle:        st.Now,
		Config:       st.Cfg,
		Bench:        st.Bench,
		Seed:         st.Opts.Seed,
		QuotaInstr:   st.Opts.QuotaInstr,
		TelemetrySeq: st.TelemetrySeq,
	}, nil
}
