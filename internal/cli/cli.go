// Package cli is the shared command-line surface of the respin tools.
// Every flag that more than one of cmd/respin-{sim,bench,sweep,serve}
// needs — seeds, quotas, parallelism, profiling, fault
// injection, and the telemetry outputs — is declared exactly once here.
// The flags that define a run write a v1.RunRequest, the document a
// client would POST to /v1/run, so every tool reaches its simulator
// options through v1's one resolver. Each tool assembles an App from
// its default run and the flag groups it actually supports:
//
//	app := cli.New("respin-sim",
//		v1.RunRequest{Config: "SH-STT", Bench: "fft", Quota: sim.DefaultQuota, Seed: 1},
//		cli.WithTarget(cli.TAll),
//		cli.WithRunFlags(),
//		cli.WithProfileFlags(),
//		cli.WithTelemetryFlags(),
//		cli.WithFaultFlags(),
//		cli.WithEnduranceFlags(),
//	)
//	flag.Parse()
//	cleanup, err := app.Start()      // profiling + telemetry outputs
//	defer cleanup()
//	req, err := app.Request()        // the v1.RunRequest the flags wrote, normalized
//	// ... or app.Apply(runner) for the batch tools
//
// A group that was not requested registers no flags and costs nothing;
// its accessors degrade gracefully (a run without fault flags injects
// nothing, a nil collector disables telemetry). Enum-valued flags —
// -config, -bench, -scale, -ecc — reject unknown values with an error
// that lists every valid one, the same convention respin-bench's -only
// uses.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"

	v1 "respin/internal/api/v1"
	"respin/internal/experiments"
	"respin/internal/prof"
	"respin/internal/reliability"
	"respin/internal/sim"
	"respin/internal/telemetry"
)

// Common holds the flag values shared by the respin commands. Which
// fields are actually wired to flags depends on the groups the App was
// built with; unwired fields keep their zero values.
type Common struct {
	Jobs       int
	Quiet      bool
	CPUProfile string
	MemProfile string
	// Metrics and Events are the telemetry output paths; empty disables
	// the respective output, and leaving both empty keeps the collector
	// nil (zero overhead, bit-identical results).
	Metrics string
	Events  string
	// Checkpoint and CheckpointEvery are the crash-recovery flags.
	// Single-run tools treat the path as a file; multi-run tools
	// (respin-sweep, respin-bench) treat it as the directory of their
	// run store.
	Checkpoint      string
	CheckpointEvery uint64

	collector  *telemetry.Collector
	eventsFile *os.File
	metricsDoc func() (any, error)
}

// groupSet selects which flag groups an App registers.
type groupSet uint

const (
	groupRun groupSet = 1 << iota
	groupParallel
	groupProfile
	groupTelemetry
	groupFaults
	groupEndurance
	groupCheckpoint
	groupTarget
)

// App is one tool's assembled command-line surface: the shared flag
// values plus the run the flags define, registered on a flag set by New.
type App struct {
	Name string
	Common
	// Req is the run the flags define, as they wrote it: the target and
	// run flags write its scalar fields, the fault and endurance groups
	// its Faults and Endurance specs. Request normalizes it.
	Req v1.RunRequest

	fs          *flag.FlagSet
	groups      groupSet
	targetWhich TargetFlags
}

// Option configures an App under construction.
type Option func(*App)

// WithFlagSet registers on fs instead of flag.CommandLine (tests).
func WithFlagSet(fs *flag.FlagSet) Option {
	return func(a *App) { a.fs = fs }
}

// WithRunFlags registers -seed, -quota and -q; the default run's quota
// and seed are the flags' defaults.
func WithRunFlags() Option {
	return func(a *App) { a.groups |= groupRun }
}

// WithParallelFlags registers -jobs.
func WithParallelFlags() Option {
	return func(a *App) { a.groups |= groupParallel }
}

// WithProfileFlags registers -cpuprofile and -memprofile.
func WithProfileFlags() Option {
	return func(a *App) { a.groups |= groupProfile }
}

// WithTelemetryFlags registers -metrics and -events.
func WithTelemetryFlags() Option {
	return func(a *App) { a.groups |= groupTelemetry }
}

// WithFaultFlags registers the fault-injection group (-fault-seed,
// -stt-write-fail, -sram-bitflip, -ecc, ...). All defaults inject
// nothing.
func WithFaultFlags() Option {
	return func(a *App) { a.groups |= groupFaults }
}

// WithEnduranceFlags registers the STT wear/retention group
// (-endurance-budget, -retention-cycles, ...). All defaults disable
// the model.
func WithEnduranceFlags() Option {
	return func(a *App) { a.groups |= groupEndurance }
}

// WithCheckpointFlags registers -checkpoint and -checkpoint-every.
// Single-run tools interpret the path as one checkpoint file; pool
// tools interpret it as the directory of their run store.
func WithCheckpointFlags() Option {
	return func(a *App) { a.groups |= groupCheckpoint }
}

// WithTarget registers the selected target flags; the default run's
// fields are their defaults.
func WithTarget(which TargetFlags) Option {
	return func(a *App) { a.groups |= groupTarget; a.targetWhich = which }
}

// New assembles a tool's command-line surface from its default run and
// the given flag groups, and registers it (on flag.CommandLine unless
// WithFlagSet says otherwise). The flags write into a copy of def, so
// the run a tool simulates without flags is def. The caller still owns
// Parse, so it can declare tool-specific flags after New and before
// parsing.
func New(name string, def v1.RunRequest, opts ...Option) *App {
	a := &App{Name: name, Req: def, fs: flag.CommandLine}
	for _, opt := range opts {
		opt(a)
	}
	a.register()
	return a
}

// register declares the selected groups' flags.
func (a *App) register() {
	fs, req := a.fs, &a.Req
	if a.groups&groupTarget != 0 {
		if a.targetWhich&TConfig != 0 {
			fs.StringVar(&req.Config, "config", req.Config, "Table IV configuration name")
		}
		if a.targetWhich&TBench != 0 {
			fs.StringVar(&req.Bench, "bench", req.Bench, "benchmark name")
		}
		if a.targetWhich&TScale != 0 {
			fs.StringVar(&req.Scale, "scale", req.Scale, "cache scale: small, medium, large")
		}
		if a.targetWhich&TCluster != 0 {
			fs.IntVar(&req.Cluster, "cluster", req.Cluster, "cores per cluster (4, 8, 16, 32)")
		}
	}
	if a.groups&groupRun != 0 {
		fs.Int64Var(&req.Seed, "seed", req.Seed, "randomness seed")
		fs.Uint64Var(&req.Quota, "quota", req.Quota, "per-thread instruction budget")
		fs.BoolVar(&a.Quiet, "q", false, "suppress progress output")
	}
	if a.groups&groupParallel != 0 {
		fs.IntVar(&a.Jobs, "jobs", 0, "cap parallelism across simulations (0 = all cores)")
	}
	if a.groups&groupProfile != 0 {
		fs.StringVar(&a.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
		fs.StringVar(&a.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	}
	if a.groups&groupTelemetry != 0 {
		fs.StringVar(&a.Metrics, "metrics", "", "write the final telemetry document (versioned JSON) to this file")
		fs.StringVar(&a.Events, "events", "", "stream telemetry events (JSONL) to this file")
	}
	// The fault and endurance defaults inject nothing and disable the
	// model, so a tool behaves as if the group were absent unless one
	// of its flags is given.
	if a.groups&groupFaults != 0 {
		f := &v1.FaultSpec{}
		req.Faults = f
		fs.Int64Var(&f.Seed, "fault-seed", 1,
			"fault-injection randomness seed (distinct from -seed)")
		fs.Float64Var(&f.STTWriteFail, "stt-write-fail", 0,
			"per-attempt STT-RAM write-verify failure probability")
		fs.Float64Var(&f.SRAMBitFlip, "sram-bitflip", 0,
			"per-cell SRAM read upset probability; negative derives it from the cache rail voltage")
		fs.StringVar(&f.ECC, "ecc", reliability.SECDED.String(),
			"ECC scheme protecting SRAM words: none, parity, SECDED, DECTED")
		fs.BoolVar(&f.HaltOnUncorrectable, "halt-uncorrectable", false,
			"abort the run on the first detected uncorrectable SRAM word")
		fs.IntVar(&f.KillCores, "kill-cores", 0,
			"hard-kill this many cores in every cluster at -kill-cycle")
		fs.Uint64Var(&f.KillCycle, "kill-cycle", v1.DefaultKillCycle,
			"cache cycle at which -kill-cores faults strike")
	}
	if a.groups&groupEndurance != 0 {
		e := &v1.EnduranceSpec{}
		req.Endurance = e
		fs.Float64Var(&e.Budget, "endurance-budget", 0,
			"mean per-way STT write-endurance budget (lognormal); 0 disables wear tracking")
		fs.Float64Var(&e.Sigma, "endurance-sigma", 0,
			"lognormal sigma of the endurance budget distribution; 0 selects the default")
		fs.Uint64Var(&e.RetentionCycles, "retention-cycles", 0,
			"relaxed-retention STT line lifetime in cache cycles; 0 disables the retention model")
		fs.Uint64Var(&e.ScrubPeriod, "scrub-period", 0,
			"background scrub period in cache cycles; 0 selects retention/2")
		fs.BoolVar(&e.WearLevel, "wear-level", false,
			"enable epoch-based wear-leveling set-index rotation")
		fs.Uint64Var(&e.WearLevelPeriod, "wear-period", 0,
			"array writes between wear-leveling rotations; 0 selects the default")
	}
	if a.groups&groupCheckpoint != 0 {
		fs.StringVar(&a.Checkpoint, "checkpoint", "", "write periodic crash-recovery checkpoints to this path (file, or directory for sweep tools); a run resumes from it when it holds a checkpoint of the same run")
		fs.Uint64Var(&a.CheckpointEvery, "checkpoint-every", sim.DefaultCheckpointEvery, "cycles between checkpoint writes")
	}
}

// Request returns the run the parsed flags wrote, normalized: the same
// document a client would POST to /v1/run for this invocation, which is
// what makes CLI and served output byte-identical.
func (a *App) Request() (v1.RunRequest, error) {
	req := a.Req
	if err := req.Normalize(); err != nil {
		return v1.RunRequest{}, err
	}
	return req, nil
}

// Start begins CPU profiling and opens the telemetry outputs. It
// returns a cleanup function that stops the profile, writes the heap
// profile and the -metrics document, and closes the event stream; call
// it exactly once (normally deferred) and report its error.
func (c *Common) Start() (cleanup func() error, err error) {
	stopCPU, err := prof.StartCPU(c.CPUProfile)
	if err != nil {
		return nil, err
	}
	if c.Metrics != "" || c.Events != "" {
		opts := []telemetry.Option{}
		if c.Events != "" {
			f, err := os.Create(c.Events)
			if err != nil {
				stopCPU()
				return nil, err
			}
			c.eventsFile = f
			opts = append(opts, telemetry.WithEvents(f))
		}
		c.collector = telemetry.New(opts...)
	}
	return func() error {
		errs := []error{stopCPU(), prof.WriteHeap(c.MemProfile)}
		if c.Metrics != "" {
			doc, err := c.buildMetricsDoc()
			if err == nil {
				var data []byte
				data, err = v1.EncodeBytes(doc)
				if err == nil {
					err = os.WriteFile(c.Metrics, data, 0o644)
				}
			}
			errs = append(errs, err)
		}
		if c.collector.Enabled() {
			errs = append(errs, c.collector.Emitter().Err())
		}
		if c.eventsFile != nil {
			errs = append(errs, c.eventsFile.Close())
		}
		return errors.Join(errs...)
	}, nil
}

// SetMetricsDoc overrides the document the -metrics file receives: by
// default it is the versioned metric snapshot (v1.MetricsDoc);
// respin-sim substitutes the full v1.RunResult so its -metrics file is
// byte-identical to the served /v1/run response.
func (c *Common) SetMetricsDoc(fn func() (any, error)) { c.metricsDoc = fn }

// buildMetricsDoc resolves the -metrics document at cleanup time.
func (c *Common) buildMetricsDoc() (any, error) {
	if c.metricsDoc != nil {
		return c.metricsDoc()
	}
	return v1.NewMetricsDoc(c.collector.Snapshot()), nil
}

// Collector returns the telemetry collector built by Start (nil when
// neither -metrics nor -events was given).
func (c *Common) Collector() *telemetry.Collector { return c.collector }

// Apply transfers the parsed flag values onto an experiments Runner and
// normalizes it. Call after Start so the telemetry collector exists.
// A -quota or -seed of zero keeps the runner's own value, and the
// endurance flags resolve by the rule of a single run
// (v1.EnduranceSpec.Params). Single-run tools build their run from
// Request instead.
func (a *App) Apply(r *experiments.Runner) error {
	if a.Req.Quota != 0 {
		r.Quota = a.Req.Quota
	}
	if a.Req.Seed != 0 {
		r.Seed = a.Req.Seed
	}
	r.Endurance = a.Req.Endurance.Params(a.Req.Faults)
	// Reject a model no run can take here, not as a panic in the first
	// run; the copy keeps the runs' parameters as given.
	p := r.Endurance
	if err := p.Normalize(); err != nil {
		return err
	}
	r.Jobs = a.Jobs
	r.CheckpointDir = a.Checkpoint
	r.CheckpointEvery = a.CheckpointEvery
	if !a.Quiet {
		r.Progress = os.Stderr
	}
	r.Telemetry = a.collector
	return r.Normalize()
}

// CheckpointSpec returns the checkpoint spec the flags denote, zero
// (checkpointing off) without -checkpoint. A run resumes from the path
// when it holds a checkpoint of the same run and keeps checkpointing to
// it. Single-run tools pass the spec to sim.RunOrResume; pool tools use
// the path as the runner's run store (Apply).
func (c *Common) CheckpointSpec() sim.CheckpointSpec {
	if c.Checkpoint == "" {
		return sim.CheckpointSpec{}
	}
	return sim.CheckpointSpec{Path: c.Checkpoint, EveryCycles: c.CheckpointEvery}
}

// TargetFlags selects which of the target-selection flags a tool
// registers.
type TargetFlags int

const (
	TConfig TargetFlags = 1 << iota
	TBench
	TScale
	TCluster
	// TAll registers the full -config/-bench/-scale/-cluster set.
	TAll = TConfig | TBench | TScale | TCluster
)

// Fail is the shared error epilogue of the respin mains: report the
// error under the tool's name and select exit status 1.
func (a *App) Fail(err error) int {
	fmt.Fprintf(os.Stderr, "%s: %v\n", a.Name, err)
	return 1
}
