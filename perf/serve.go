package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	v1 "respin/internal/api/v1"
	"respin/internal/config"
	"respin/internal/experiments"
	"respin/internal/serve"
	"respin/internal/sim"
	"respin/internal/telemetry"
	"respin/internal/trace"
)

// requests is the stream of unique /v1/run requests the serve workloads
// share. Request i runs configuration i mod 8 with benchmark
// (i/8 + i mod 8) mod 13, so any 8 consecutive requests cover every
// Table IV configuration and any 104 cover every (configuration,
// benchmark) pair once. The seed picks only the run seeds, distinct per
// request so no two share a cache key: every seed gets the same mix of
// work.
type requests struct {
	seed  int64
	quota uint64
}

func newRequests(seed int64, quota uint64) requests { return requests{seed: seed, quota: quota} }

func (q requests) at(i int) v1.RunRequest {
	kinds, benches := config.AllArchKinds, trace.Names()
	k := i % len(kinds)
	req := v1.RunRequest{
		Config: kinds[k].String(),
		Bench:  benches[(i/len(kinds)+k)%len(benches)],
		Quota:  q.quota,
		Seed:   q.seed*1_000_000 + int64(i) + 1,
	}
	if err := req.Normalize(); err != nil {
		panic(fmt.Sprintf("perf: request %d: %v", i, err)) // names and kinds come from the packages' own lists
	}
	return req
}

func (q requests) body(i int) []byte {
	data, err := v1.EncodeBytes(q.at(i))
	if err != nil {
		panic(fmt.Sprintf("perf: encode request %d: %v", i, err))
	}
	return data
}

// reference computes in-process what the service must answer for req:
// the canonical RunResult of a run with a metrics collector attached.
func reference(ctx context.Context, req v1.RunRequest) ([]byte, error) {
	cfg, opts, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	opts.Telemetry = telemetry.New()
	res, runErr := sim.RunContext(ctx, cfg, req.Bench, opts)
	return encodeResult(req, res, runErr)
}

// service is an in-process respin-serve on a loopback port.
type service struct {
	srv    *serve.Server
	runner *experiments.Runner
	hs     *http.Server
	url    string
	served chan error
}

// startService builds the server (replaying journal when set) and
// starts serving it. With a tracer, a middleware records a
// serve.handler span per request under the client's span.
func startService(journal string, tr *tracer) (*service, error) {
	runner := experiments.NewRunner()
	runner.Jobs = nproc()
	srv, err := serve.New(serve.Options{Runner: runner, Journal: journal})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = handlerSpans(h, tr)
	}
	s := &service{srv: srv, runner: runner, hs: &http.Server{Handler: h},
		url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains the server and waits for its handlers and Serve to end.
func (s *service) close() error {
	s.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// The client passes its span to the handler middleware in these headers.
const (
	reqHeader  = "Perf-Req"
	spanHeader = "Perf-Span"
)

func handlerSpans(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.ParseUint(req.Header.Get(spanHeader), 10, 64)
		sp := tr.begin("serve.handler", req.Header.Get(reqHeader), parent)
		h.ServeHTTP(w, req)
		tr.end(sp)
	})
}

// client posts /v1/run requests over at most nproc keep-alive
// connections.
type client struct {
	hc  *http.Client
	tr  *http.Transport
	url string
	spn *tracer
}

func newClient(url string, spn *tracer) *client {
	t := &http.Transport{MaxIdleConnsPerHost: nproc(), MaxConnsPerHost: nproc()}
	return &client{hc: &http.Client{Transport: t}, tr: t, url: url, spn: spn}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends one request and returns the response body once it has
// been read and strictly decoded, as a caller of the service would, with
// the time all of that took.
func (c *client) post(ctx context.Context, id string, body []byte) ([]byte, time.Duration, error) {
	sp := c.spn.begin("client.request", id, 0)
	defer c.spn.end(sp)
	t0 := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if sp.ID != 0 {
		hreq.Header.Set(reqHeader, id)
		hreq.Header.Set(spanHeader, strconv.FormatUint(sp.ID, 10))
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", id, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, fmt.Errorf("%s: read body: %w", id, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("%s: status %d: %.200s", id, resp.StatusCode, data)
	}
	dsp := c.spn.begin("v1.decode", id, sp.ID)
	_, err = v1.DecodeRunResult(bytes.NewReader(data))
	c.spn.end(dsp)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", id, err)
	}
	return data, time.Since(t0), nil
}

// clients runs fn on nproc goroutines, one per closed-loop client, and
// waits for all of them.
func clients(fn func(client int)) {
	var wg sync.WaitGroup
	for c := 0; c < nproc(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// serveRun is the state the serve workloads share.
type serveRun struct {
	*run
	q    requests
	refs [][]byte // in-process answers to the stream's first requests
}

func newServeRun(ctx context.Context, r *run) (*serveRun, error) {
	s := &serveRun{run: r, q: newRequests(r.seed, r.sz.serveQuota)}
	for i := 0; i < refChecks; i++ {
		ref, err := reference(ctx, s.q.at(i))
		if err != nil {
			return nil, err
		}
		s.refs = append(s.refs, ref)
	}
	return s, nil
}

// check compares the body of stream request i with its in-process
// answer, for the requests that have one.
func (s *serveRun) check(i int, body []byte) error {
	if i < len(s.refs) {
		return sameBytes(fmt.Sprintf("request %d vs in-process run", i), s.refs[i], body)
	}
	return nil
}

// digestFirst records the digest of the stream's first journalKeys
// bodies; every serve workload serves them, so at the golden seed the
// three must agree.
func (s *serveRun) digestFirst(bodies [][]byte) {
	n := s.sz.journalKeys
	s.digest(fmt.Sprintf("serve/q%d/seed%d/first%d", s.q.quota, s.seed, n), bytes.Join(bodies[:n], nil))
}

// startServices times sz.serveSetups start-ups of the service, closing
// all but the last, which it returns.
func (s *serveRun) startServices(journal string) (*service, error) {
	for i := 0; ; i++ {
		t0 := time.Now()
		svc, err := startService(journal, s.tr)
		if err != nil {
			return nil, err
		}
		s.setup = append(s.setup, time.Since(t0).Seconds())
		if i >= s.sz.serveSetups-1 {
			return svc, nil
		}
		if err := svc.close(); err != nil {
			return nil, err
		}
	}
}

// prime issues stream requests [0, n) as misses over the closed-loop
// clients and returns their bodies.
func (s *serveRun) prime(ctx context.Context, c *client, n int) [][]byte {
	bodies := make([][]byte, n)
	var next atomic.Int64
	clients(func(int) {
		for i := int(next.Add(1) - 1); i < n && ctx.Err() == nil; i = int(next.Add(1) - 1) {
			data, _, err := c.post(ctx, fmt.Sprintf("miss-%d", i), s.q.body(i))
			if err == nil {
				err = s.check(i, data)
			}
			bodies[i] = data
			s.op(err)
		}
	})
	return bodies
}

// hit re-requests a key whose body is already known and checks that the
// service repeats it byte for byte.
func (s *serveRun) hit(ctx context.Context, c *client, id string, body, want []byte) (time.Duration, error) {
	data, d, err := c.post(ctx, id, body)
	if err == nil {
		err = sameBytes(id, want, data)
	}
	return d, err
}

// misses runs the timed phase of unique requests from stream index
// first on, issuing at least up to index atLeast even past the deadline,
// and returns every body by index.
func (s *serveRun) misses(ctx context.Context, c *client, first, atLeast int) map[int][]byte {
	bodies := make(map[int][]byte)
	var mu sync.Mutex
	var next atomic.Int64
	next.Store(int64(first))
	s.timed(func(deadline time.Time) {
		clients(func(int) {
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= atLeast && !time.Now().Before(deadline) {
					return
				}
				data, d, err := c.post(ctx, fmt.Sprintf("miss-%d", i), s.q.body(i))
				if err == nil {
					err = s.check(i, data)
				}
				s.record(d, err)
				mu.Lock()
				bodies[i] = data
				mu.Unlock()
			}
		})
	})
	return bodies
}

// runServeCold: every timed request is a unique miss on a server
// without a journal. Set-up is server construction plus listen.
func runServeCold(ctx context.Context, r *run) error {
	s, err := newServeRun(ctx, r)
	if err != nil {
		return err
	}
	svc, err := s.startServices("")
	if err != nil {
		return err
	}
	r.runner = svc.runner
	c := newClient(svc.url, r.tr)
	bodies := s.misses(ctx, c, 0, s.sz.journalKeys)
	c.close()
	first := make([][]byte, s.sz.journalKeys)
	for i := range first {
		first[i] = bodies[i]
	}
	s.digestFirst(first)
	if started, want := svc.runner.RunsStarted(), uint64(len(bodies)); started != want {
		r.op(fmt.Errorf("serve-cold: %d simulations for %d unique requests", started, want))
	}
	return errors.Join(svc.close(), ctx.Err())
}

// runServeHot primes hotKeys unique keys, then times re-requests of
// them drawn by a seeded generator per client. Every hit must repeat its
// key's miss body, and no hit may start a simulation.
func runServeHot(ctx context.Context, r *run) error {
	s, err := newServeRun(ctx, r)
	if err != nil {
		return err
	}
	svc, err := s.startServices("")
	if err != nil {
		return err
	}
	r.runner = svc.runner
	c := newClient(svc.url, r.tr)
	miss := s.prime(ctx, c, s.sz.hotKeys)
	s.digestFirst(miss)
	reqs := make([][]byte, len(miss))
	for i := range reqs {
		reqs[i] = s.q.body(i)
	}
	s.timed(func(deadline time.Time) {
		clients(func(cl int) {
			rng := rand.New(rand.NewSource(r.seed*7919 + int64(cl)))
			for n := 0; time.Now().Before(deadline) && ctx.Err() == nil; n++ {
				i := rng.Intn(len(reqs))
				s.record(s.hit(ctx, c, fmt.Sprintf("hit-%d-%d", cl, n), reqs[i], miss[i]))
			}
		})
	})
	c.close()
	if started := svc.runner.RunsStarted(); started != uint64(len(miss)) {
		r.op(fmt.Errorf("serve-hot: %d simulations for %d keys", started, len(miss)))
	}
	return errors.Join(svc.close(), ctx.Err())
}

// runServeJournal commits journalKeys results through a journaled
// server, then times restarts over the journal (the set-up: serve.New
// replays it), then times unique misses with the journal on. The
// replayed results and every timed result must come back
// byte-identical from the journal.
func runServeJournal(ctx context.Context, r *run) error {
	s, err := newServeRun(ctx, r)
	if err != nil {
		return err
	}
	dir := filepath.Join(r.work, fmt.Sprintf("journal-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	svc, err := startService(dir, nil)
	if err != nil {
		return err
	}
	c := newClient(svc.url, nil)
	committed := s.prime(ctx, c, s.sz.journalKeys)
	c.close()
	s.digestFirst(committed)
	if err := svc.close(); err != nil {
		return err
	}

	svc, err = s.startServices(dir)
	if err != nil {
		return err
	}
	r.runner = svc.runner
	c = newClient(svc.url, r.tr)
	replay := func(i int, want []byte) {
		_, err := s.hit(ctx, c, fmt.Sprintf("replay-%d", i), s.q.body(i), want)
		s.op(err)
	}
	for i, want := range committed {
		replay(i, want)
	}
	bodies := s.misses(ctx, c, len(committed), 0)
	for i, want := range bodies {
		replay(i, want)
	}
	c.close()
	if started := svc.runner.RunsStarted(); started != uint64(len(bodies)) {
		r.op(fmt.Errorf("serve-journal: %d simulations for %d new requests", started, len(bodies)))
	}
	return errors.Join(svc.close(), ctx.Err())
}
