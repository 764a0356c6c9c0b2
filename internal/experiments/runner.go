// Package experiments reproduces every table and figure of the paper's
// evaluation (Section V plus the motivating Figure 1 and the methodology
// tables). Each experiment has a driver that runs the required simulator
// configurations (results are cached and shared between figures) and a
// renderer that prints rows/series comparable with the paper's.
//
// Simulations dispatch onto a worker pool (Jobs wide) with singleflight
// deduplication: two figures requesting the same configuration point
// share one in-flight run instead of racing. Drivers consume results by
// key, never by completion order, so report output is byte-identical at
// any parallelism.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"respin/internal/config"
	"respin/internal/endurance"
	"respin/internal/flight"
	"respin/internal/sim"
	"respin/internal/stats"
	"respin/internal/telemetry"
	"respin/internal/trace"
)

// Runner executes and caches simulation runs for the experiment drivers.
type Runner struct {
	// Quota is the per-thread instruction budget for the main figures.
	Quota uint64
	// TraceQuota is the (longer) budget for the consolidation traces
	// (Figures 12-14), which need many epochs.
	TraceQuota uint64
	// Seed drives all randomness.
	Seed int64
	// FaultSeed drives fault-injection randomness in the fault sweep
	// (deliberately distinct from Seed); zero selects 1.
	FaultSeed int64
	// Endurance is applied uniformly to every simulation the runner
	// executes (the endurance sweep overrides it per point). The zero
	// value disables the model, reproducing pre-endurance runs
	// bit-identically.
	Endurance endurance.Params
	// Benches is the benchmark list (default: all 13).
	Benches []string
	// Progress, when non-nil, receives one line per completed run.
	// Writes are serialised under the runner's lock, so any io.Writer
	// is safe.
	Progress io.Writer
	// Ctx, when non-nil, cancels in-flight simulations: after
	// cancellation each run returns its partial result, Aborted
	// reports true, and All truncates to a partial report instead of
	// discarding completed sections.
	Ctx context.Context
	// Jobs bounds how many simulations run concurrently. Zero selects
	// GOMAXPROCS; one reproduces the serial runner.
	Jobs int
	// CheckpointDir, when non-empty, gives every simulation the runner
	// executes a crash-recovery checkpoint file under this directory,
	// keyed by run label: an interrupted evaluation re-invoked over the
	// same directory resumes each unfinished run from its last
	// epoch-boundary checkpoint (bit-identical to an uninterrupted run)
	// instead of starting it over. Completed runs remove their file, so
	// a finished evaluation leaves the directory empty.
	CheckpointDir string
	// CheckpointEvery is the checkpoint cadence in cycles; zero selects
	// sim.DefaultCheckpointEvery.
	CheckpointEvery uint64
	// Telemetry, when non-nil, receives runner-level metrics
	// (runs started/completed, singleflight cache hits), one
	// run.progress event per completed simulation, and — absorbed under
	// "run.<label>." — the per-run metric snapshot of every simulation
	// the runner executes. Each simulation gets its own detached
	// collector sharing this one's event emitter, so concurrent runs
	// never collide on metric names.
	Telemetry *telemetry.Collector

	flights flight.Group[sim.Result] // the result cache, by run key

	mu        sync.Mutex
	sem       chan struct{}
	aborted   bool
	frontHits func() uint64 // hit counter of a cache kept in front (CountHitsOf)

	telOnce   sync.Once
	started   atomic.Uint64
	completed atomic.Uint64
}

// Point identifies one simulation of the evaluation's run set: the cache
// key fields of Runner.run, made addressable so drivers can enqueue
// batches ahead of consumption (Prefetch).
type Point struct {
	Kind        config.ArchKind
	Scale       config.CacheScale
	ClusterSize int
	Bench       string
	Quota       uint64
	EpochTrace  bool
}

func (p Point) key() string {
	return fmt.Sprintf("%v|%v|%d|%s|%d|%v", p.Kind, p.Scale, p.ClusterSize, p.Bench, p.Quota, p.EpochTrace)
}

// ctx returns the cancellation context (Background when unset).
func (r *Runner) ctx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// Aborted reports whether a run was cut short by Ctx cancellation.
func (r *Runner) Aborted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.aborted
}

func (r *Runner) setAborted() {
	r.mu.Lock()
	r.aborted = true
	r.mu.Unlock()
}

// progressf writes one progress line under the runner's lock.
func (r *Runner) progressf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Progress != nil {
		fmt.Fprintf(r.Progress, format, args...)
	}
}

// NewRunner returns the full-fidelity runner used by cmd/respin-bench.
func NewRunner() *Runner {
	return &Runner{
		Quota:      150_000,
		TraceQuota: 400_000,
		Seed:       1,
		Benches:    trace.Names(),
	}
}

// QuickRunner returns a reduced runner (four representative benchmarks,
// short quotas) for tests and rapid iteration.
func QuickRunner() *Runner {
	return &Runner{
		Quota:      40_000,
		TraceQuota: 120_000,
		Seed:       1,
		Benches:    []string{"fft", "ocean", "radix", "raytrace"},
	}
}

// Normalize applies the runner defaults (those NewRunner would have
// set) and rejects invalid settings in one place, mirroring
// sim.Options.Normalize. A zero-value Runner normalized this way is
// equivalent to NewRunner().
func (r *Runner) Normalize() error {
	if r.Jobs < 0 {
		return fmt.Errorf("experiments: negative job count %d", r.Jobs)
	}
	if r.Quota == 0 {
		r.Quota = 150_000
	}
	if r.TraceQuota == 0 {
		r.TraceQuota = 400_000
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.FaultSeed == 0 {
		r.FaultSeed = 1
	}
	if r.CheckpointDir != "" {
		if err := os.MkdirAll(r.CheckpointDir, 0o755); err != nil {
			return fmt.Errorf("experiments: checkpoint dir: %w", err)
		}
	}
	if len(r.Benches) == 0 {
		r.Benches = trace.Names()
	}
	for _, b := range r.Benches {
		if _, err := trace.ByName(b); err != nil {
			return err
		}
	}
	r.registerTelemetry()
	return nil
}

// registerTelemetry publishes the runner's own progress counters; the
// per-run metric snapshots arrive separately via Absorb in runLabeled.
func (r *Runner) registerTelemetry() {
	if !r.Telemetry.Enabled() {
		return
	}
	r.telOnce.Do(func() {
		c := r.Telemetry
		c.RegisterCounter("runner.runs_started", r.started.Load)
		c.RegisterCounter("runner.runs_completed", r.completed.Load)
		c.RegisterCounter("runner.cache_hits", r.CacheHits)
	})
}

// semLocked returns the worker-pool semaphore, sized on first use so
// Jobs can be assigned any time before the first run. Callers hold mu.
func (r *Runner) semLocked() chan struct{} {
	if r.sem == nil {
		n := r.Jobs
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		r.sem = make(chan struct{}, n)
	}
	return r.sem
}

// shared executes fn for key exactly once across concurrent requesters
// (see flight.Group), ignoring the flight's error: the experiment
// drivers' fns return a non-nil error only for Ctx cancellation, which
// Aborted (set inside execute) already records, and the partial result
// is still the right thing to hand the report renderers.
func (r *Runner) shared(key string, fn func() (sim.Result, error)) sim.Result {
	r.registerTelemetry()
	res, _ := r.flights.Do(context.Background(), key, func() (sim.Result, error) {
		return r.execute(key, fn)
	})
	return res
}

// execute runs fn on a worker-pool slot, uncached. It counts the run as
// started and, on a recorded outcome, completed; a run that was not
// recorded marks the evaluation aborted only when the runner's own Ctx
// was cancelled — a single request's deadline or failure does not.
func (r *Runner) execute(key string, fn func() (sim.Result, error)) (sim.Result, error) {
	r.mu.Lock()
	sem := r.semLocked()
	r.mu.Unlock()
	sem <- struct{}{}
	defer func() { <-sem }()
	r.started.Add(1)
	res, err := fn()
	if !flight.Recorded(err) {
		if r.ctx().Err() != nil {
			r.setAborted()
		}
		return res, err
	}
	r.completed.Add(1)
	if r.Telemetry.Enabled() {
		r.Telemetry.Emit("run.progress", 0, map[string]any{
			"key":        key,
			"started":    r.started.Load(),
			"completed":  r.completed.Load(),
			"cache_hits": r.CacheHits(),
		})
	}
	return res, err
}

// Exec runs one simulation on the runner's worker pool without the
// runner's cache: it is the service entry point, and the service keeps
// (and deduplicates) the encoded outcomes itself. Like the cached runs
// it counts toward RunsStarted and RunsCompleted. Unlike the experiment
// drivers, which die with an attributed panic on simulator failure, Exec
// recovers a panic into an error naming label, so one poisoned request
// can never take down the process. fn runs under ctx (typically the
// server's lifetime plus the request deadline).
func (r *Runner) Exec(ctx context.Context, label string, fn func(context.Context) (sim.Result, error)) (sim.Result, error) {
	r.registerTelemetry()
	return r.execute(label, func() (res sim.Result, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("experiments: panic during %s: %v", label, p)
			}
		}()
		res, err = fn(ctx)
		if err == nil {
			r.progressf("ran %-40s: %8d kcycles, %s\n", label, res.Cycles/1000, fmtEnergy(res.EnergyPJ))
		}
		return res, err
	})
}

// CacheHits reports how many requests were served by joining or
// recalling an existing flight instead of starting a simulation,
// counting those answered by a cache registered with CountHitsOf.
func (r *Runner) CacheHits() uint64 {
	r.mu.Lock()
	front := r.frontHits
	r.mu.Unlock()
	n := r.flights.Hits()
	if front != nil {
		n += front()
	}
	return n
}

// CountHitsOf makes CacheHits include hits, the hit counter of a cache
// kept in front of the runner: the service's body store answers
// repeated requests without reaching the runner, and the runner's hit
// count should not depend on which layer answered. hits is only read
// when CacheHits is; a later call replaces an earlier one.
func (r *Runner) CountHitsOf(hits func() uint64) {
	r.mu.Lock()
	r.frontHits = hits
	r.mu.Unlock()
}

// RunsStarted reports how many simulations have been started.
func (r *Runner) RunsStarted() uint64 { return r.started.Load() }

// RunsCompleted reports how many simulations ran to a recorded outcome.
func (r *Runner) RunsCompleted() uint64 { return r.completed.Load() }

// Prefetch enqueues simulations without waiting for their results: each
// point starts (or joins) its singleflight run on the worker pool, so a
// driver can queue a whole figure's — or the whole evaluation's — run
// set up front and keep the pool saturated while it consumes results in
// deterministic order.
func (r *Runner) Prefetch(points ...Point) {
	for _, p := range points {
		p := p
		go r.runPoint(p)
	}
}

// prefetch enqueues cached runs that Point cannot express (the fault
// sweep's injection parameters).
func (r *Runner) prefetch(fns ...func()) {
	for _, fn := range fns {
		go fn()
	}
}

// run executes (or recalls) one simulation.
func (r *Runner) run(kind config.ArchKind, scale config.CacheScale, clusterSize int, bench string, quota uint64, epochTrace bool) sim.Result {
	return r.runPoint(Point{
		Kind: kind, Scale: scale, ClusterSize: clusterSize,
		Bench: bench, Quota: quota, EpochTrace: epochTrace,
	})
}

// runPoint executes (or recalls, or joins) the simulation for one point.
func (r *Runner) runPoint(p Point) sim.Result {
	return r.shared(p.key(), func() (sim.Result, error) {
		cfg := config.NewWithCluster(p.Kind, p.Scale, p.ClusterSize)
		res, err := r.runSim(cfg, p.Bench, p.Quota, p.EpochTrace)
		if err != nil {
			if r.ctx().Err() != nil {
				return res, err
			}
			panic(fmt.Sprintf("experiments: %v %v cl%d %s (seed %d, quota %d): %v",
				p.Kind, p.Scale, p.ClusterSize, p.Bench, r.Seed, p.Quota, err))
		}
		r.progressf("ran %-16v %-6v cl%-2d %-14s: %8d kcycles, %s\n",
			p.Kind, p.Scale, p.ClusterSize, p.Bench, res.Cycles/1000, fmtEnergy(res.EnergyPJ))
		return res, nil
	})
}

// runSim executes one simulation with panic attribution: a panic inside
// the simulator is recovered, stamped with the run's full identity
// (configuration, benchmark, seeds), and re-raised, so a crash in a
// hundreds-of-runs evaluation names the one run that caused it.
func (r *Runner) runSim(cfg config.Config, bench string, quota uint64, epochTrace bool) (res sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			panic(fmt.Sprintf("experiments: panic during %v/%v cl%d %s (seed %d, fault seed %d, quota %d): %v",
				cfg.Kind, cfg.Scale, cfg.ClusterSize, bench, r.Seed, r.faultSeed(), quota, p))
		}
	}()
	return r.runLabeled(runLabel(cfg, bench, quota, epochTrace), cfg, bench, sim.Options{
		QuotaInstr: quota,
		Seed:       r.Seed,
		EpochTrace: epochTrace,
	})
}

// runLabel is the stable dotted identity a run's absorbed metrics and
// scoped events appear under ("run.<label>.…" metrics, scope
// "<root>/<label>" events).
func runLabel(cfg config.Config, bench string, quota uint64, epochTrace bool) string {
	label := fmt.Sprintf("%v.%v.cl%d.%s.q%d", cfg.Kind, cfg.Scale, cfg.ClusterSize, bench, quota)
	if epochTrace {
		label += ".trace"
	}
	return label
}

// runLabeled executes one simulation, attaching a detached per-run
// collector when the runner has telemetry enabled. The per-run
// collector shares the runner's event emitter (scoped by label) but has
// its own metric namespace, so concurrent simulations never collide;
// its final snapshot is absorbed into the runner's collector under
// "run.<label>." once the run completes.
func (r *Runner) runLabeled(label string, cfg config.Config, bench string, opts sim.Options) (sim.Result, error) {
	if !opts.Endurance.Enabled() {
		opts.Endurance = r.Endurance
	}
	if r.Telemetry.Enabled() {
		opts.Telemetry = telemetry.New(
			telemetry.WithEmitter(r.Telemetry.Emitter()),
			telemetry.WithScope(label),
		)
	}
	run := func() (sim.Result, error) { return sim.RunContext(r.ctx(), cfg, bench, opts) }
	if spec := r.checkpointSpec(label); spec.Enabled() {
		run = func() (sim.Result, error) {
			res, err := sim.RunOrResume(r.ctx(), cfg, bench, opts, spec)
			// Recorded outcomes retire their checkpoint: the result is
			// final, so a later invocation must not resume from it.
			if flight.Recorded(err) {
				os.Remove(spec.Path)
			}
			return res, err
		}
	}
	res, err := run()
	if err == nil && r.Telemetry.Enabled() {
		r.Telemetry.Absorb("run."+label, res.Metrics)
	}
	return res, err
}

// checkpointSpec resolves the per-label crash-recovery checkpoint spec;
// the zero spec (checkpointing off) when the runner has no checkpoint
// directory.
func (r *Runner) checkpointSpec(label string) sim.CheckpointSpec {
	if r.CheckpointDir == "" {
		return sim.CheckpointSpec{}
	}
	every := r.CheckpointEvery
	if every == 0 {
		every = sim.DefaultCheckpointEvery
	}
	return sim.CheckpointSpec{
		Path:        filepath.Join(r.CheckpointDir, ckptName(label)),
		EveryCycles: every,
	}
}

// ckptName maps a run label to its checkpoint file name, replacing
// anything a filesystem might object to.
func ckptName(label string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.' || r == '-' || r == '_':
			return r
		}
		return '_'
	}, label)
	return safe + ".ckpt"
}

// medium is shorthand for the default configuration point.
func (r *Runner) medium(kind config.ArchKind, bench string) sim.Result {
	return r.run(kind, config.Medium, 16, bench, r.Quota, false)
}

func fmtEnergy(pj float64) string {
	switch {
	case pj >= 1e9:
		return fmt.Sprintf("%.2f mJ", pj*1e-9)
	case pj >= 1e6:
		return fmt.Sprintf("%.2f uJ", pj*1e-6)
	default:
		return fmt.Sprintf("%.0f pJ", pj)
	}
}

// meanNormalized returns the geometric mean over benches of
// metric(cfg)/metric(base).
func meanNormalized(vals []float64) float64 { return stats.GeoMean(vals) }
