// Package serve is the long-running evaluation service behind
// cmd/respin-serve: an HTTP/JSON API (versioned under /v1) over a
// persistent experiments.Runner, so the jobs pool is amortized across
// requests, and a body store answers repeated requests, instead of
// dying with a one-shot CLI process.
//
// Endpoints:
//
//	POST /v1/run           one simulation; body is a v1.RunRequest,
//	                       response a v1.RunResult — byte-identical to
//	                       `respin-sim -metrics` output for the same
//	                       request
//	POST /v1/sweep         a batch of points (explicit, or a preset:
//	                       "fig9", "eval") fanned into the worker pool;
//	                       response a v1.SweepResult in request order
//	GET  /v1/runs/{id}/events  Server-Sent Events replay+follow of the
//	                       run's telemetry JSONL (id from the
//	                       Respin-Run-Id response header)
//	GET  /v1/healthz       v1.Health (queue depth, drain state)
//	GET  /v1/metrics       v1.MetricsDoc snapshot of the server registry
//
// The body store keeps one copy of each recorded result, in wire form:
// request key → the canonical v1.RunResult bytes. A miss encodes its
// result once, and that slice is the response, the journal's committed
// result and the store entry; a hit is a lookup and one Write.
//
// With Options.Journal the runs go through a runstore.Store keyed by the
// v1 request key, committing each recorded outcome's canonical body. New
// replays it: committed bodies that pass the strict v1 decode seed the
// body store as they are, and interrupted requests re-execute in the
// background from their checkpoints; a re-POST joins that flight.
//
// Concurrency and robustness: admission is a bounded token queue —
// when full, the server answers 429 with Retry-After instead of
// queueing unboundedly. Each admitted request runs under the server's
// base context plus the request's own timeout_ms deadline, so a client
// disconnect never kills a simulation another requester shares.
// Simulator panics are recovered into attributed errors by the runner
// (HTTP 500, process keeps serving), and identical concurrent requests
// collapse into one singleflight run whose body every caller shares
// byte-for-byte.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	v1 "respin/internal/api/v1"
	"respin/internal/experiments"
	"respin/internal/flight"
	"respin/internal/runstore"
	"respin/internal/sim"
	"respin/internal/telemetry"
)

// Options configures a Server.
type Options struct {
	// Runner executes the simulations; nil selects experiments.NewRunner.
	// New normalizes it.
	Runner *experiments.Runner
	// Queue bounds how many requests may be admitted at once (queued or
	// running); 0 selects 2 x the runner's job slots.
	Queue int
	// BaseContext is the lifetime simulations run under (plus each
	// request's own deadline); nil selects context.Background, so a
	// drain lets in-flight runs finish.
	BaseContext context.Context
	// Telemetry is the server's metric registry, exposed at /v1/metrics;
	// nil builds a private one. The body store's hits and the runner's
	// run counters are registered into it as run.cache_hits /
	// run.runs_started / run.runs_completed.
	Telemetry *telemetry.Collector
	// LogCapacity bounds how many finished run event logs are kept for
	// /v1/runs/{id}/events replay; 0 selects 128.
	LogCapacity int
	// Journal, when non-empty, is the run-store directory of the
	// crash-safe run journal: on restart completed runs are served from
	// disk and interrupted ones resume from their last checkpoint.
	Journal string
}

// journalEvery is the checkpoint cadence, in simulated cycles, of
// journaled runs.
const journalEvery = 20_000

// Server is the /v1 evaluation service. Create with New, expose with
// Handler, stop by draining (BeginDrain + http.Server.Shutdown).
type Server struct {
	runner  *experiments.Runner
	base    context.Context
	tele    *telemetry.Collector
	logs    *logRegistry
	mux     *http.ServeMux
	journal *runstore.Store

	// bodies maps a request key to the canonical RunResult body of its
	// recorded outcome (complete or wear-out), and deduplicates runs in
	// flight.
	bodies flight.Group[[]byte]

	tokens   chan struct{}
	draining atomic.Bool

	httpRequests atomic.Uint64
	httpRejected atomic.Uint64
	httpPanics   atomic.Uint64
	sseStreams   atomic.Uint64

	journalRecovered atomic.Uint64
}

// New builds the service around a persistent runner.
func New(opts Options) (*Server, error) {
	r := opts.Runner
	if r == nil {
		r = experiments.NewRunner()
	}
	if err := r.Normalize(); err != nil {
		return nil, err
	}
	queue := opts.Queue
	if queue <= 0 {
		jobs := r.Jobs
		if jobs <= 0 {
			jobs = runtime.GOMAXPROCS(0)
		}
		queue = 2 * jobs
	}
	base := opts.BaseContext
	if base == nil {
		base = context.Background()
	}
	tele := opts.Telemetry
	if !tele.Enabled() {
		tele = telemetry.New()
	}
	s := &Server{
		runner: r,
		base:   base,
		tele:   tele,
		logs:   newLogRegistry(opts.LogCapacity),
		mux:    http.NewServeMux(),
		tokens: make(chan struct{}, queue),
	}
	// The runner only executes for the service; its cache_hits are the
	// store's.
	r.CountHitsOf(s.bodies.Hits)
	tele.RegisterCounter("run.cache_hits", s.bodies.Hits)
	tele.RegisterCounter("run.runs_started", r.RunsStarted)
	tele.RegisterCounter("run.runs_completed", r.RunsCompleted)
	tele.RegisterCounter("http.requests", s.httpRequests.Load)
	tele.RegisterCounter("http.rejected", s.httpRejected.Load)
	tele.RegisterCounter("http.panics", s.httpPanics.Load)
	tele.RegisterCounter("sse.streams", s.sseStreams.Load)
	tele.RegisterGauge("queue.in_flight", func() float64 { return float64(len(s.tokens)) })
	tele.RegisterGauge("queue.capacity", func() float64 { return float64(cap(s.tokens)) })

	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)

	if opts.Journal != "" {
		st, err := runstore.Open(opts.Journal, journalEvery)
		if err != nil {
			return nil, err
		}
		results, pending, err := st.Replay(resultKey, requestKey)
		if err != nil {
			return nil, err
		}
		s.journal = st
		for key, body := range results {
			s.bodies.Seed(key, body)
		}
		// With the journal on, every recorded body is committed to disk,
		// so a recall is a journal hit and the store size its count.
		tele.RegisterCounter("journal.hits", s.bodies.Recalls)
		tele.RegisterCounter("journal.recovered", s.journalRecovered.Load)
		tele.RegisterGauge("journal.completed", func() float64 { return float64(s.bodies.Len()) })
		for _, data := range pending {
			go s.recoverRun(data)
		}
	}
	return s, nil
}

// resultKey is the request key of a committed body. The strict decode
// is the only gate before those bytes are served verbatim, and only a
// recorded outcome may be served.
func resultKey(body []byte) (string, error) {
	doc, err := v1.DecodeRunResult(bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	if !doc.Recorded() {
		return "", fmt.Errorf("serve: journaled result has status %q", doc.Status)
	}
	return doc.Request.Key(), nil
}

// requestKey is the key of a journaled request.
func requestKey(data []byte) (string, error) {
	req, err := v1.DecodeRunRequest(bytes.NewReader(data))
	return req.Key(), err
}

// recoverRun re-executes one journaled request (its replayed bytes)
// that a previous process left unfinished. It runs through the same
// execute path a re-POSTed request would take — resuming from the
// journal checkpoint and joining the body store's singleflight — so a
// client retrying the request shares the recovery flight instead of
// racing it.
func (s *Server) recoverRun(data []byte) {
	req, err := v1.DecodeRunRequest(bytes.NewReader(data))
	if err != nil {
		return
	}
	ctx, cancel := s.runCtx(req)
	defer cancel()
	if _, err := s.execute(ctx, req, nil); err == nil {
		s.journalRecovered.Add(1)
	}
}

// Handler returns the service's HTTP handler: the /v1 mux behind the
// panic-to-500 and request-counting middleware.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.httpRequests.Add(1)
		defer func() {
			if p := recover(); p != nil {
				// The runner recovers simulator panics itself; this
				// guard catches handler-layer bugs so one request can
				// never take the service down.
				s.httpPanics.Add(1)
				s.writeError(w, http.StatusInternalServerError,
					fmt.Sprintf("serve: internal panic: %v", p))
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// BeginDrain flips the server into drain mode: new work is refused
// with 503 while in-flight runs complete (http.Server.Shutdown then
// closes the listener and waits for handlers).
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// admit takes an admission token without blocking; callers must
// release() iff admitted.
func (s *Server) admit() bool {
	select {
	case s.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Server) release() { <-s.tokens }

// admitOrReject handles the two refusal cases every work endpoint
// shares: drain mode (503) and a full queue (429 + Retry-After).
func (s *Server) admitOrReject(w http.ResponseWriter) bool {
	if s.draining.Load() {
		s.httpRejected.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "serve: draining, not accepting new work")
		return false
	}
	if !s.admit() {
		s.httpRejected.Add(1)
		secs := retryAfterSeconds(len(s.tokens), rand.Float64)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("serve: admission queue full (%d in flight)", cap(s.tokens)))
		return false
	}
	return true
}

// retryAfterSeconds computes the 429 Retry-After hint. A constant hint
// re-synchronizes every rejected client into a retry stampede at the
// same instant; instead the hint is full-jittered — uniform over a
// window that widens with the queue depth (capped at 30s) — so a
// deeper backlog both tells clients to wait longer on average and
// spreads their retries across the window. r is the uniform [0,1)
// source (injectable for the unit test).
func retryAfterSeconds(depth int, r func() float64) int {
	window := 1 + depth/4
	if window > 30 {
		window = 30
	}
	return 1 + int(r()*float64(window))
}

// runCtx derives the context one request's simulation runs under: the
// server's base lifetime plus the request's own deadline — never the
// HTTP request context, so a client disconnect cannot kill a
// singleflight run other requesters share.
func (s *Server) runCtx(req v1.RunRequest) (context.Context, context.CancelFunc) {
	if ms, bounded := req.Timeout(); bounded {
		return context.WithTimeout(s.base, time.Duration(ms)*time.Millisecond)
	}
	return s.base, func() {}
}

// execute answers one resolved request with the canonical bytes of its
// v1.RunResult: recalled from the body store when the key has a
// recorded outcome, shared when the key is in flight, and otherwise run
// once (log receives the run's event stream; nil for sweep points and
// recoveries, which are not individually followable).
func (s *Server) execute(ctx context.Context, req v1.RunRequest, log *runLog) ([]byte, error) {
	key := req.Key()
	body, err := s.bodies.Do(ctx, key, func() ([]byte, error) { return s.run(ctx, key, req, log) })
	switch {
	case body != nil:
		return body, nil
	case err != nil && err == ctx.Err():
		// This request's own deadline passed while it waited on
		// another requester's flight: a partial result with nothing
		// executed.
		return encodeResult(req, sim.Result{}, err)
	}
	return nil, err
}

// run executes one request on the runner's pool and encodes its outcome
// once. The telemetry collector mirrors what respin-sim attaches for
// -metrics — same registry, so the body is byte-identical. The error
// returned beside a body is the simulation's own (nil, a wear-out, or a
// deadline), which decides whether the store keeps the body; a failure
// returns no body.
func (s *Server) run(ctx context.Context, key string, req v1.RunRequest, log *runLog) ([]byte, error) {
	cfg, opts, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	if log != nil {
		opts.Telemetry = telemetry.New(telemetry.WithEvents(log), telemetry.WithScope(req.Label()))
	} else {
		opts.Telemetry = telemetry.New()
	}
	simulate := func(ctx context.Context) (sim.Result, error) {
		return sim.RunContext(ctx, cfg, req.Bench, opts)
	}
	if s.journal != nil {
		// Journal the request write-ahead and checkpoint while running,
		// so a crash resumes the run instead of restarting it.
		data, err := v1.EncodeBytes(req)
		if err != nil {
			return nil, err
		}
		spec, err := s.journal.Begin(key, data)
		if err != nil {
			return nil, err
		}
		simulate = func(ctx context.Context) (sim.Result, error) {
			return sim.RunOrResume(ctx, cfg, req.Bench, opts, spec)
		}
	}
	res, runErr := s.runner.Exec(ctx, req.Label(), simulate)
	body, err := encodeResult(req, res, runErr)
	if err != nil {
		return nil, err
	}
	if s.journal != nil && flight.Recorded(runErr) {
		if err := s.journal.Commit(key, body); err != nil {
			return nil, err
		}
	}
	return body, runErr
}

// encodeResult renders one executed request exactly as respin-sim
// -metrics does.
func encodeResult(req v1.RunRequest, res sim.Result, runErr error) ([]byte, error) {
	doc, err := v1.NewResult(req, res, runErr)
	if err != nil {
		return nil, err
	}
	return v1.EncodeBytes(doc)
}

// handleRun: POST /v1/run.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req, err := v1.DecodeRunRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Resolve up front so a request that can never run (e.g. kills
	// exceeding the cluster) is a 400, not a wasted admission.
	if _, _, err := req.Resolve(); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !s.admitOrReject(w) {
		return
	}
	defer s.release()

	log := s.logs.create(r.Header.Get("Respin-Run-Id"))
	defer log.finish()
	ctx, cancel := s.runCtx(req)
	defer cancel()
	body, err := s.execute(ctx, req, log)
	w.Header().Set("Respin-Run-Id", log.id)
	if err != nil {
		// Normalize/Resolve passed, so this is an execution failure — a
		// recovered simulator panic (attributed by the runner) or a
		// cancelled base context.
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleSweep: POST /v1/sweep. Every point fans out into the runner's
// pool concurrently; the response preserves request order, and a point
// that cannot run yields a status:"error" entry instead of failing the
// batch.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	sreq, err := v1.DecodeSweepRequest(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	points, err := s.sweepPoints(sreq)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !s.admitOrReject(w) {
		return
	}
	defer s.release()

	ctx, cancel := context.WithCancel(s.base)
	defer cancel()
	bodies := make([][]byte, len(points))
	errs := make([]error, len(points))
	var wg sync.WaitGroup
	for i, p := range points {
		wg.Add(1)
		go func(i int, p v1.RunRequest) {
			defer wg.Done()
			pctx, pcancel := ctx, context.CancelFunc(func() {})
			if ms, bounded := p.Timeout(); bounded {
				pctx, pcancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
			}
			defer pcancel()
			bodies[i], errs[i] = s.sweepBody(pctx, p)
		}(i, p)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	data, err := v1.EncodeSweep(bodies)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, data)
}

// sweepBody runs one sweep point and returns its stored body, or the
// encoding of a status:"error" entry.
func (s *Server) sweepBody(ctx context.Context, p v1.RunRequest) ([]byte, error) {
	body, err := s.execute(ctx, p, nil)
	if err != nil {
		return v1.EncodeBytes(v1.ErrorResult(p, err))
	}
	return body, nil
}

// sweepPoints expands a sweep request into its normalized point list.
func (s *Server) sweepPoints(sreq v1.SweepRequest) ([]v1.RunRequest, error) {
	var runs []experiments.Run
	switch sreq.Preset {
	case "":
		return sreq.Points, nil
	case "fig9":
		runs = s.runner.Figure9Runs()
	case "eval":
		runs = s.runner.EvalRuns()
	default:
		return nil, fmt.Errorf("serve: unknown sweep preset %q (valid: %s)", sreq.Preset, v1.SweepPresets)
	}
	reqs := make([]v1.RunRequest, len(runs))
	for i, run := range runs {
		reqs[i] = v1.RunRequest{
			Config:     run.Config.Kind.String(),
			Bench:      run.Bench,
			Scale:      run.Config.Scale.String(),
			Cluster:    run.Config.ClusterSize,
			Quota:      run.Opts.QuotaInstr,
			Seed:       run.Opts.Seed,
			EpochTrace: run.Opts.EpochTrace,
		}
		if err := reqs[i].Normalize(); err != nil {
			return nil, fmt.Errorf("serve: preset %s point %d: %w", sreq.Preset, i, err)
		}
	}
	return reqs, nil
}

// handleEvents: GET /v1/runs/{id}/events — Server-Sent Events replay
// and follow of one run's telemetry JSONL. The stream ends once the
// run completes and every buffered event was delivered.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	log := s.logs.get(r.PathValue("id"))
	if log == nil {
		s.writeError(w, http.StatusNotFound, fmt.Sprintf("serve: unknown run %q", r.PathValue("id")))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, "serve: response writer cannot stream")
		return
	}
	s.sseStreams.Add(1)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	offset := 0
	for {
		lines, done, changed := log.after(offset)
		for _, line := range lines {
			fmt.Fprintf(w, "data: %s\n\n", line)
		}
		offset += len(lines)
		flusher.Flush()
		if done {
			fmt.Fprintf(w, "event: done\ndata: {}\n\n")
			flusher.Flush()
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleHealth: GET /v1/healthz.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	s.writeDoc(w, http.StatusOK, v1.Health{
		SchemaVersion: v1.SchemaVersion,
		Status:        status,
		InFlight:      len(s.tokens),
		QueueFree:     cap(s.tokens) - len(s.tokens),
		Draining:      s.draining.Load(),
	})
}

// handleMetrics: GET /v1/metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.writeDoc(w, http.StatusOK, v1.NewMetricsDoc(s.tele.Snapshot()))
}

// writeDoc writes any v1 document in the canonical encoding.
func (s *Server) writeDoc(w http.ResponseWriter, code int, doc any) {
	data, err := v1.EncodeBytes(doc)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, code, data)
}

// writeError writes the versioned error envelope.
func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	data, err := v1.EncodeBytes(v1.NewErrorDoc(msg))
	if err != nil {
		http.Error(w, msg, code)
		return
	}
	writeJSON(w, code, data)
}

// writeJSON writes an already-encoded JSON body.
func writeJSON(w http.ResponseWriter, code int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(data)
}
