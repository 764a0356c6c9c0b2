// Package cli is the shared command-line surface of the respin tools.
// Every flag that more than one of cmd/respin-{sim,bench,sweep,trace,
// serve} needs — seeds, quotas, parallelism, profiling, fault
// injection, and the telemetry outputs — is declared exactly once here.
// Each tool assembles an App from the flag groups it actually supports:
//
//	app := cli.New("respin-sim",
//		cli.WithTarget(cli.Target{ConfigName: "SH-STT"}, cli.TAll),
//		cli.WithRunFlags(cli.Defaults{Quota: sim.DefaultQuota}),
//		cli.WithParallelFlags(),
//		cli.WithProfileFlags(),
//		cli.WithTelemetryFlags(),
//		cli.WithFaultFlags(),
//		cli.WithEnduranceFlags(),
//	)
//	flag.Parse()
//	cleanup, err := app.Start()      // profiling + telemetry outputs
//	defer cleanup()
//	req, err := app.Request()        // the v1.RunRequest the flags denote
//	// ... or app.Apply(runner) for the batch tools
//
// A group that was not requested registers no flags and costs nothing;
// its accessors degrade gracefully (nil fault flags inject nothing, a
// nil collector disables telemetry). Enum-valued flags — -config,
// -bench, -scale, -ecc — reject unknown values with an error that lists
// every valid one, the same convention respin-bench's -only uses.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"

	v1 "respin/internal/api/v1"
	"respin/internal/endurance"
	"respin/internal/experiments"
	"respin/internal/faults"
	"respin/internal/prof"
	"respin/internal/sim"
	"respin/internal/telemetry"
)

// Defaults parameterizes the per-tool defaults of the run flags.
type Defaults struct {
	// Quota is the default -quota value.
	Quota uint64
	// Seed is the default -seed value; zero selects 1.
	Seed int64
}

// Common holds the flag values shared by the respin commands. Which
// fields are actually wired to flags depends on the groups the App was
// built with; unwired fields keep their zero values.
type Common struct {
	Seed       int64
	Jobs       int
	Quota      uint64
	Quiet      bool
	CPUProfile string
	MemProfile string
	// Metrics and Events are the telemetry output paths; empty disables
	// the respective output, and leaving both empty keeps the collector
	// nil (zero overhead, bit-identical results).
	Metrics string
	Events  string
	// Faults is the fault-injection flag group (nil unless
	// WithFaultFlags was given).
	Faults *faults.Flags
	// Endurance is the STT wear/retention flag group (nil unless
	// WithEnduranceFlags was given; a nil group disables the model).
	Endurance *endurance.Flags
	// Checkpoint, CheckpointEvery and Resume are the crash-recovery
	// flags; Resume is an alias of Checkpoint (see CheckpointSpec).
	// Single-run tools treat the path as a file; multi-run tools
	// (respin-sweep, respin-bench) treat it as a directory holding one
	// checkpoint per run label.
	Checkpoint      string
	CheckpointEvery uint64
	Resume          string

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
// values plus the target selection, registered on a flag set by New.
type App struct {
	Name string
	Common
	Target Target

	fs          *flag.FlagSet
	groups      groupSet
	defaults    Defaults
	targetWhich TargetFlags
}

// Option configures an App under construction.
type Option func(*App)

// WithFlagSet registers on fs instead of flag.CommandLine (tests).
func WithFlagSet(fs *flag.FlagSet) Option {
	return func(a *App) { a.fs = fs }
}

// WithRunFlags registers -seed, -quota and -q with the given defaults.
func WithRunFlags(d Defaults) Option {
	return func(a *App) { a.groups |= groupRun; a.defaults = d }
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

// WithCheckpointFlags registers -checkpoint, -checkpoint-every and
// -resume. Single-run tools interpret the path as one checkpoint file;
// pool tools interpret it as a directory keyed by run label.
func WithCheckpointFlags() Option {
	return func(a *App) { a.groups |= groupCheckpoint }
}

// WithTarget registers the selected target flags, with t's fields as
// defaults.
func WithTarget(t Target, which TargetFlags) Option {
	return func(a *App) { a.groups |= groupTarget; a.Target = t; a.targetWhich = which }
}

// New assembles a tool's command-line surface from the given flag
// groups and registers it (on flag.CommandLine unless WithFlagSet says
// otherwise). The caller still owns Parse, so it can declare
// tool-specific flags after New and before parsing.
func New(name string, opts ...Option) *App {
	a := &App{Name: name, fs: flag.CommandLine}
	for _, opt := range opts {
		opt(a)
	}
	a.register()
	return a
}

// register declares the selected groups' flags.
func (a *App) register() {
	fs := a.fs
	if a.groups&groupRun != 0 {
		d := a.defaults
		if d.Seed == 0 {
			d.Seed = 1
		}
		fs.Int64Var(&a.Seed, "seed", d.Seed, "randomness seed")
		fs.Uint64Var(&a.Quota, "quota", d.Quota, "per-thread instruction budget")
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
	if a.groups&groupFaults != 0 {
		a.Faults = faults.BindTo(fs)
	}
	if a.groups&groupCheckpoint != 0 {
		fs.StringVar(&a.Checkpoint, "checkpoint", "", "write periodic crash-recovery checkpoints to this path (file, or directory for sweep tools)")
		fs.Uint64Var(&a.CheckpointEvery, "checkpoint-every", sim.DefaultCheckpointEvery, "cycles between checkpoint writes")
		fs.StringVar(&a.Resume, "resume", "", "alias of -checkpoint: resume from this path when it holds a checkpoint of the same run")
	}
	if a.groups&groupEndurance != 0 {
		a.Endurance = endurance.BindTo(fs)
	}
	if a.groups&groupTarget != 0 {
		a.Target.Register(fs, a.targetWhich)
	}
}

// Request assembles the v1.RunRequest the parsed flags denote,
// normalized — the same document a client would POST to /v1/run for
// this invocation, which is what makes CLI and served output
// byte-identical.
func (a *App) Request() (v1.RunRequest, error) {
	req := v1.RunRequest{
		Config:  a.Target.ConfigName,
		Bench:   a.Target.BenchName,
		Scale:   a.Target.ScaleName,
		Cluster: a.Target.Cluster,
		Quota:   a.Quota,
		Seed:    a.Seed,
	}
	if f := a.Faults; f != nil {
		req.Faults = &v1.FaultSpec{
			Seed:                f.Seed,
			STTWriteFail:        f.STTWriteFail,
			SRAMBitFlip:         f.SRAMBitFlip,
			ECC:                 f.ECCName,
			HaltOnUncorrectable: f.Halt,
			KillCores:           f.KillCores,
			KillCycle:           f.KillCycle,
		}
	}
	if e := a.Endurance; e != nil {
		req.Endurance = &v1.EnduranceSpec{
			Budget:          e.Budget,
			Sigma:           e.Sigma,
			RetentionCycles: e.RetentionCycles,
			ScrubPeriod:     e.ScrubPeriod,
			WearLevel:       e.WearLevel,
			WearLevelPeriod: e.WearLevelPeriod,
		}
	}
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

// LimitJobs applies -jobs as a GOMAXPROCS cap — how single-simulation
// tools bound their parallelism (pool-based tools size their worker
// pool instead).
func (c *Common) LimitJobs() {
	if c.Jobs > 0 {
		runtime.GOMAXPROCS(c.Jobs)
	}
}

// Apply transfers the parsed flag values onto an experiments Runner and
// normalizes it. Call after Start so the telemetry collector exists.
// Single-run tools build their run from Request instead.
func (c *Common) Apply(r *experiments.Runner) error {
	spec, err := c.CheckpointSpec()
	if err != nil {
		return err
	}
	if c.Quota != 0 {
		r.Quota = c.Quota
	}
	if c.Seed != 0 {
		r.Seed = c.Seed
	}
	r.FaultSeed = c.faultSeed()
	r.Endurance = c.Endurance.Params(c.faultSeed())
	r.Jobs = c.Jobs
	r.CheckpointDir = spec.Path
	r.CheckpointEvery = c.CheckpointEvery
	if !c.Quiet {
		r.Progress = os.Stderr
	}
	r.Telemetry = c.collector
	return r.Normalize()
}

// CheckpointSpec returns the checkpoint spec the flags denote, zero
// (checkpointing off) when neither -checkpoint nor -resume was given.
// -resume is an alias of -checkpoint: a run resumes from the path when
// it holds a checkpoint of the same run and keeps checkpointing to it,
// so naming two different paths is an error. Single-run tools pass the
// spec to sim.RunOrResume; pool tools use its path as the runner's
// checkpoint directory.
func (c *Common) CheckpointSpec() (sim.CheckpointSpec, error) {
	path := c.Checkpoint
	if c.Resume != "" {
		if path != "" && path != c.Resume {
			return sim.CheckpointSpec{}, fmt.Errorf("-checkpoint %q and -resume %q name different paths (-resume is an alias of -checkpoint)", path, c.Resume)
		}
		path = c.Resume
	}
	if path == "" {
		return sim.CheckpointSpec{}, nil
	}
	return sim.CheckpointSpec{Path: path, EveryCycles: c.CheckpointEvery}, nil
}

// FaultParams resolves the fault-injection flags for a chip with the
// given cluster count; without WithFaultFlags it injects nothing.
func (c *Common) FaultParams(numClusters int) (faults.Params, error) {
	if c.Faults == nil {
		return faults.Params{}, nil
	}
	return c.Faults.Params(numClusters)
}

// faultSeed reads the -fault-seed value, tolerating an App built
// without the fault group.
func (c *Common) faultSeed() int64 {
	if c.Faults == nil {
		return 0
	}
	return c.Faults.Seed
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

// Target selects what to simulate: Table IV configuration, benchmark,
// cache scale, and cluster size. Zero-valued fields fall back to the
// simulator defaults (medium scale, standard cluster size).
type Target struct {
	ConfigName string
	BenchName  string
	ScaleName  string
	Cluster    int
}

// Register declares the selected target flags on fs, using the Target's
// current field values as defaults.
func (t *Target) Register(fs *flag.FlagSet, which TargetFlags) {
	if which&TConfig != 0 {
		fs.StringVar(&t.ConfigName, "config", t.ConfigName, "Table IV configuration name")
	}
	if which&TBench != 0 {
		fs.StringVar(&t.BenchName, "bench", t.BenchName, "benchmark name")
	}
	if which&TScale != 0 {
		fs.StringVar(&t.ScaleName, "scale", t.ScaleName, "cache scale: small, medium, large")
	}
	if which&TCluster != 0 {
		fs.IntVar(&t.Cluster, "cluster", t.Cluster, "cores per cluster (4, 8, 16, 32)")
	}
}

// Fail is the shared error epilogue of the respin mains: report the
// error under the tool's name and select exit status 1.
func (a *App) Fail(err error) int {
	fmt.Fprintf(os.Stderr, "%s: %v\n", a.Name, err)
	return 1
}
