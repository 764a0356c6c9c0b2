// Package experiments reproduces every table and figure of the paper's
// evaluation (Section V plus the motivating Figure 1 and the methodology
// tables). Each experiment has a driver that runs the required simulator
// configurations (results are cached and shared between figures) and a
// renderer that prints rows/series comparable with the paper's.
//
// Runner is the one batch executor: every batch of simulations — the
// figure drivers, the fault and endurance sweeps, cmd/respin-sweep —
// is a list of Run values passed to Runner.Do. Runs dispatch onto a
// worker pool (Jobs wide) with singleflight deduplication by label: two
// figures requesting the same configuration point share one in-flight
// run instead of racing. Callers consume results by label or position,
// never by completion order, so output is byte-identical at any
// parallelism.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"respin/internal/checkpoint"
	"respin/internal/config"
	"respin/internal/endurance"
	"respin/internal/flight"
	"respin/internal/runstore"
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
	// CheckpointDir, when non-empty, is the run store
	// (internal/runstore) the runner keeps its simulations in, keyed by
	// sim.RunKey: a run with a committed outcome there is recalled, not
	// simulated, and an unfinished one resumes from its last checkpoint
	// (bit-identical to an uninterrupted run). A failed or cancelled run
	// keeps its checkpoint for the next invocation.
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
	recalled  atomic.Uint64 // runs answered from the store
}

// Run is one simulation of a batch. Its Label is the run's identity
// within one Runner: the singleflight key, the "run.<label>." metric
// prefix and the event scope — so two runs with equal labels must
// describe the same simulation. On disk a run is keyed by its whole
// definition (sim.RunKey), which the label omits parts of.
type Run struct {
	Label  string
	Config config.Config
	Bench  string
	Opts   sim.Options
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
		if _, err := runstore.Open(r.CheckpointDir, r.CheckpointEvery); err != nil {
			return fmt.Errorf("experiments: %w", err)
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
// per-run metric snapshots arrive separately via Absorb in simulate.
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

// Do executes (or recalls, or joins) each run on the worker pool and
// returns their results and errors in run order, whatever the
// completion order. A failed run does not stop the others. A run whose
// label is already cached or in flight is answered by that flight (see
// flight.Group), and a panic inside a simulation comes back as that
// run's error.
func (r *Runner) Do(runs ...Run) ([]sim.Result, []error) {
	results := make([]sim.Result, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = r.do(run)
		}()
	}
	wg.Wait()
	return results, errs
}

// Prefetch enqueues runs without waiting for their results: each starts
// (or joins) its flight on the worker pool, so a driver can queue a
// whole figure's — or the whole evaluation's — run set up front and keep
// the pool saturated while it consumes results in deterministic order.
func (r *Runner) Prefetch(runs ...Run) {
	for _, run := range runs {
		go r.do(run)
	}
}

// do executes (or recalls, or joins) one run and absorbs its metric
// snapshot under "run.<label>.".
func (r *Runner) do(run Run) (sim.Result, error) {
	r.registerTelemetry()
	return r.flights.Do(context.Background(), run.Label, func() (sim.Result, error) {
		res, err := r.simulate(run)
		r.Telemetry.Absorb("run."+run.Label, res.Metrics)
		return res, err
	})
}

// must returns the runs' results for the experiment drivers, which die
// with a panic naming the run on a simulator failure. Recorded outcomes
// (including wear-out) and the partial results of a cancelled runner
// (which Aborted reports) are returned as they are.
func (r *Runner) must(runs ...Run) []sim.Result {
	results, errs := r.Do(runs...)
	for i, err := range errs {
		if !flight.Recorded(err) && r.ctx().Err() == nil {
			panic(fmt.Sprintf("experiments: run %s (seed %d, fault seed %d): %v",
				runs[i].Label, runs[i].Opts.Seed, r.faultSeed(), err))
		}
	}
	return results
}

// execute runs fn on a worker-pool slot, uncached, recovering a panic
// into an error naming label. It counts the run as started and, on a
// recorded outcome, completed, with one progress line and one
// run.progress event; a run that was not recorded marks the evaluation
// aborted only when the runner's own Ctx was cancelled — a single
// request's deadline or failure does not.
func (r *Runner) execute(label string, fn func() (sim.Result, error)) (sim.Result, error) {
	r.registerTelemetry()
	r.mu.Lock()
	sem := r.semLocked()
	r.mu.Unlock()
	sem <- struct{}{}
	defer func() { <-sem }()
	r.started.Add(1)
	res, err := guard(label, fn)
	if !flight.Recorded(err) {
		if r.ctx().Err() != nil {
			r.setAborted()
		}
		return res, err
	}
	r.completed.Add(1)
	r.progressLine("ran", label, res, err)
	if r.Telemetry.Enabled() {
		r.Telemetry.Emit("run.progress", 0, map[string]any{
			"key":        label,
			"started":    r.started.Load(),
			"completed":  r.completed.Load(),
			"cache_hits": r.CacheHits(),
		})
	}
	return res, err
}

// progressLine writes the progress line of a run with a recorded
// outcome; verb says how the runner answered it.
func (r *Runner) progressLine(verb, label string, res sim.Result, err error) {
	var wear *endurance.WearOutError
	if errors.As(err, &wear) {
		r.progressf("%s %-40s: wore out at %d kcycles (%s set %d)\n", verb, label, wear.Cycle/1000, wear.Array, wear.Set)
	} else {
		r.progressf("%s %-40s: %8d kcycles, %s\n", verb, label, res.Cycles/1000, fmtEnergy(res.EnergyPJ))
	}
}

// guard calls fn, turning a panic into an error naming label.
func guard(label string, fn func() (sim.Result, error)) (res sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiments: panic during %s: %v", label, p)
		}
	}()
	return fn()
}

// Exec runs one simulation on the runner's worker pool without the
// runner's cache: it is the service entry point, and the service keeps
// (and deduplicates) the encoded outcomes and their checkpoints itself.
// Like Do it counts toward RunsStarted and RunsCompleted and turns a
// panic into an error naming label, so one poisoned request can never
// take down the process. fn runs under ctx (typically the server's
// lifetime plus the request deadline).
func (r *Runner) Exec(ctx context.Context, label string, fn func(context.Context) (sim.Result, error)) (sim.Result, error) {
	return r.execute(label, func() (sim.Result, error) { return fn(ctx) })
}

// CacheHits reports how many requests were served by joining or
// recalling an existing flight instead of starting a simulation,
// counting those answered by a cache registered with CountHitsOf.
func (r *Runner) CacheHits() uint64 {
	r.mu.Lock()
	front := r.frontHits
	r.mu.Unlock()
	n := r.flights.Hits() + r.recalled.Load()
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

// point is the run of one evaluation configuration point; its label
// names every field that tells it apart from the others.
func (r *Runner) point(kind config.ArchKind, scale config.CacheScale, clusterSize int, bench string, quota uint64, epochTrace bool) Run {
	label := fmt.Sprintf("%v.%v.cl%d.%s.q%d", kind, scale, clusterSize, bench, quota)
	if epochTrace {
		label += ".trace"
	}
	return Run{
		Label:  label,
		Config: config.NewWithCluster(kind, scale, clusterSize),
		Bench:  bench,
		Opts:   sim.Options{QuotaInstr: quota, Seed: r.Seed, EpochTrace: epochTrace},
	}
}

// mediumPoint is the default configuration point (medium scale, 16-core
// clusters, main quota).
func (r *Runner) mediumPoint(kind config.ArchKind, bench string) Run {
	return r.point(kind, config.Medium, 16, bench, r.Quota, false)
}

// result returns one run's result (see must).
func (r *Runner) result(run Run) sim.Result { return r.must(run)[0] }

// medium is shorthand for the result at the default configuration point.
func (r *Runner) medium(kind config.ArchKind, bench string) sim.Result {
	return r.result(r.mediumPoint(kind, bench))
}

// simulate answers one run: recalled from the run store when it holds
// the run's outcome, otherwise executed on a worker-pool slot. With
// telemetry enabled the run gets a detached collector that shares the
// runner's event emitter (scoped by label) but has its own metric
// namespace, so concurrent simulations never collide. The store key is
// taken from the options as the run executes them.
func (r *Runner) simulate(run Run) (sim.Result, error) {
	opts := run.Opts
	if !opts.Endurance.Enabled() {
		opts.Endurance = r.Endurance
	}
	if r.Telemetry.Enabled() {
		opts.Telemetry = telemetry.New(
			telemetry.WithEmitter(r.Telemetry.Emitter()),
			telemetry.WithScope(run.Label),
		)
	}
	if r.CheckpointDir == "" {
		return r.execute(run.Label, func() (sim.Result, error) {
			return sim.RunContext(r.ctx(), run.Config, run.Bench, opts)
		})
	}
	st, err := runstore.Open(r.CheckpointDir, r.CheckpointEvery)
	if err != nil {
		return sim.Result{}, fmt.Errorf("experiments: %w", err)
	}
	key, err := sim.RunKey(run.Config, run.Bench, opts)
	if err != nil {
		return sim.Result{}, err
	}
	if o, ok := recall(st, key); ok {
		r.recalled.Add(1)
		r.progressLine("kept", run.Label, o.Result, o.err())
		return o.Result, o.err()
	}
	return r.execute(run.Label, func() (sim.Result, error) {
		spec, err := st.Begin(key, []byte(key))
		if err != nil {
			return sim.Result{}, err
		}
		res, err := sim.RunOrResume(r.ctx(), run.Config, run.Bench, opts, spec)
		if flight.Recorded(err) {
			if cerr := commit(st, key, res, err); cerr != nil {
				return res, cerr
			}
		}
		return res, err
	})
}

// outcome is a recorded outcome as the run store keeps it, in the
// checkpoint container: its key, the result and the wear-out, if any.
type outcome struct {
	Key     string
	Result  sim.Result
	WearOut *endurance.WearOutError
}

// err is the run's error: its wear-out, or nil.
func (o outcome) err() error {
	if o.WearOut == nil {
		return nil
	}
	return o.WearOut
}

// outcomeVersion is the container version of outcome; bump it when the
// shape of outcome or sim.Result changes incompatibly.
const outcomeVersion = 1

// commit records a recorded outcome in st under key.
func commit(st *runstore.Store, key string, res sim.Result, err error) error {
	o := outcome{Key: key, Result: res}
	errors.As(err, &o.WearOut)
	data, err := checkpoint.Encode(outcomeVersion, o)
	if err != nil {
		return err
	}
	return st.Commit(key, data)
}

// recall returns the outcome st holds for key, if it holds one. A
// missing, damaged or foreign entry is none: its run executes again and
// commits over it.
func recall(st *runstore.Store, key string) (o outcome, ok bool) {
	data, err := st.Result(key)
	if err != nil || checkpoint.Decode("stored outcome", data, outcomeVersion, &o) != nil {
		return outcome{}, false
	}
	return o, o.Key == key
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
