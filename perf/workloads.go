package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	v1 "respin/internal/api/v1"
	"respin/internal/config"
	"respin/internal/experiments"
	"respin/internal/sim"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, r *run) error
	// probe is the simulation the traced run's layer probes take their
	// configuration and benchmark from.
	probe func(seed int64) v1.RunRequest
}

var workloads = []workload{
	{
		name: "deep-shared",
		why:  "one long SH-STT/fft simulation per op: all hot path (cluster tick, cpu step, shared-L1 controller, mem.Cache, trace) with no runner, HTTP or v1",
		run: func(ctx context.Context, r *run) error {
			return runDeep(ctx, r, config.SHSTT, "fft", r.sz.deepSharedQuota)
		},
		probe: func(seed int64) v1.RunRequest { return probeRequest(config.SHSTT, "fft", seed) },
	},
	{
		name: "deep-private",
		why:  "PR-SRAM-NT/ocean: private L1s and the MESI directory instead of the shared L1, and dense barriers, so a shared-L1 gain must leave it unchanged",
		run: func(ctx context.Context, r *run) error {
			return runDeep(ctx, r, config.PRSRAMNT, "ocean", r.sz.deepPrivateQuota)
		},
		probe: func(seed int64) v1.RunRequest { return probeRequest(config.PRSRAMNT, "ocean", seed) },
	},
	{
		name:  "repro-quick",
		why:   "one quick reproduction (All and Report) per op: hundreds of short runs, so runner construction, pool scheduling and the pool's tail weigh",
		run:   runRepro,
		probe: func(seed int64) v1.RunRequest { return probeRequest(config.SHSTT, "fft", seed) },
	},
	{
		name:  "serve-cold",
		why:   "unique /v1/run requests over keep-alive HTTP with the journal off: every request simulates, so service overhead rides on sim speed",
		run:   runServeCold,
		probe: serveProbe,
	},
	{
		name:  "serve-hot",
		why:   "re-requests of cached keys: no simulation, only HTTP, admission, singleflight recall, v1 encode and client decode",
		run:   runServeHot,
		probe: serveProbe,
	},
	{
		name:  "serve-journal",
		why:   "unique requests with the crash-safe journal on (checkpoint every 20000 cycles, fsync commits); set-up is the restart that replays it",
		run:   runServeJournal,
		probe: serveProbe,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// probeRequest names a probe simulation; layerProbes sets its quota.
func probeRequest(kind config.ArchKind, bench string, seed int64) v1.RunRequest {
	return v1.RunRequest{Config: kind.String(), Bench: bench, Seed: seed}
}

// serveProbe probes the first request of the serve request stream.
func serveProbe(seed int64) v1.RunRequest {
	req := newRequests(seed, 0).at(0)
	return v1.RunRequest{Config: req.Config, Bench: req.Bench, Seed: req.Seed}
}

// nproc is the load width: client goroutines, runner jobs and HTTP
// connections all stop at GOMAXPROCS.
func nproc() int { return runtime.GOMAXPROCS(0) }

// encodeResult renders a run the way every v1 surface does.
func encodeResult(req v1.RunRequest, res sim.Result, runErr error) ([]byte, error) {
	doc, err := v1.NewResult(req, res, runErr)
	if err != nil {
		return nil, err
	}
	if doc.Status != v1.StatusComplete {
		return nil, fmt.Errorf("%s: status %s: %s", req.Label(), doc.Status, doc.Detail)
	}
	return v1.EncodeBytes(doc)
}

// runDeep times sim.RunContext of one configuration point, one op per
// simulation; sim.New of each op is a set-up sample. Every op must
// produce the same bytes.
func runDeep(ctx context.Context, r *run, kind config.ArchKind, bench string, quota uint64) error {
	req := v1.RunRequest{Config: kind.String(), Bench: bench, Quota: quota, Seed: r.seed}
	if err := req.Normalize(); err != nil {
		return err
	}
	cfg, opts, err := req.Resolve()
	if err != nil {
		return err
	}
	var first []byte
	r.timed(func(deadline time.Time) {
		for i := 0; ctx.Err() == nil; i++ {
			// Each op starts from a collected heap, as a fresh respin-sim
			// process would, so no op pays for its predecessor's garbage.
			runtime.GC()
			id := fmt.Sprintf("rep-%d", i)
			op := r.tr.begin("deep.op", id, 0)
			sp := r.tr.begin("sim.New", id, op.ID)
			t0 := time.Now()
			s, err := sim.New(cfg, req.Bench, opts)
			r.setup = append(r.setup, time.Since(t0).Seconds())
			r.tr.end(sp)
			if err != nil {
				r.op(err)
				r.tr.end(op)
				return
			}
			sp = r.tr.begin("sim.RunContext", id, op.ID)
			t1 := time.Now()
			res, runErr := s.RunContext(ctx)
			d := time.Since(t1)
			r.tr.end(sp)
			sp = r.tr.begin("v1.encode", id, op.ID)
			body, err := encodeResult(req, res, runErr)
			r.tr.end(sp)
			r.tr.end(op)
			// The simulation's footprint: collect while it is still live.
			runtime.GC()
			r.observeHeap()
			runtime.KeepAlive(s)
			if err == nil && first != nil {
				err = sameBytes(id, first, body)
			}
			if err == nil && first == nil {
				first = body
				r.digest(fmt.Sprintf("%s/q%d/seed%d", r.name, quota, r.seed), body)
			}
			r.record(d, err)
			if err != nil || !fits(time.Since(t0), deadline) {
				return
			}
		}
	})
	return ctx.Err()
}

// reproRunner builds the quick runner one repro-quick op uses.
func reproRunner(r *run) (*experiments.Runner, error) {
	x := experiments.QuickRunner()
	x.Quota = r.sz.reproQuota
	x.TraceQuota = r.sz.reproTraceQuota
	x.Seed = r.seed
	x.Jobs = nproc()
	return x, x.Normalize()
}

// runRepro times one full quick reproduction per op on a fresh runner
// (a reused runner would answer every run from its cache). Runner
// construction is the set-up; every op must render the same report.
func runRepro(ctx context.Context, r *run) error {
	// Building a runner takes microseconds, so each set-up sample times
	// a batch of them.
	const batch = 1000
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			if _, err := reproRunner(r); err != nil {
				return err
			}
		}
		r.setup = append(r.setup, time.Since(t0).Seconds()/batch)
	}
	var first string
	r.timed(func(deadline time.Time) {
		for i := 0; ctx.Err() == nil; i++ {
			runtime.GC() // a collected heap, as in runDeep
			id := fmt.Sprintf("repro-%d", i)
			x, err := reproRunner(r)
			if err != nil {
				r.op(err)
				return
			}
			x.Ctx = ctx
			var clock *progressClock
			if r.tr != nil {
				clock = &progressClock{start: time.Now()}
				x.Progress = clock
			}
			op := r.tr.begin("repro.op", id, 0)
			t0 := time.Now()
			sp := r.tr.begin("experiments.All", id, op.ID)
			suite := x.All()
			r.tr.end(sp)
			sp = r.tr.begin("experiments.Report", id, op.ID)
			text := suite.Report()
			r.tr.end(sp)
			d := time.Since(t0)
			r.tr.end(op)
			runtime.GC() // as in runDeep
			r.observeHeap()
			runtime.KeepAlive(x)
			if x.Aborted() {
				r.op(fmt.Errorf("%s: reproduction interrupted", id))
				return
			}
			if clock != nil {
				r.tails = append(r.tails, clock.tailFrac(x.Jobs, d))
			}
			r.runner = x
			if first == "" {
				first = text
				r.digest(fmt.Sprintf("%s/q%d/t%d/seed%d", r.name, x.Quota, x.TraceQuota, r.seed), []byte(text))
				r.record(d, nil)
			} else {
				r.record(d, sameBytes(id, []byte(first), []byte(text)))
			}
			if !fits(d, deadline) {
				return
			}
		}
	})
	return ctx.Err()
}

// progressClock is a runner Progress writer that notes when each
// simulation completes (the runner writes one line per completion).
type progressClock struct {
	start time.Time
	mu    sync.Mutex
	done  []time.Duration
}

func (p *progressClock) Write(b []byte) (int, error) {
	p.mu.Lock()
	p.done = append(p.done, time.Since(p.start))
	p.mu.Unlock()
	return len(b), nil
}

// tailFrac is the share of an op of length wall spent after the pool
// stopped being full: wall minus the completion time of run
// #(runs-jobs+1), over wall.
func (p *progressClock) tailFrac(jobs int, wall time.Duration) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	done := append([]time.Duration(nil), p.done...)
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	k := len(done) - jobs
	if k < 0 || wall <= 0 {
		return 1
	}
	return float64(wall-done[k]) / float64(wall)
}
