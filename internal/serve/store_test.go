package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"respin/internal/experiments"
)

// hitBody is the request the hit benchmark primes once and then repeats.
const hitBody = `{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","quota":2000}`

// discardWriter is a ResponseWriter that keeps the status and the body
// length and drops the body.
type discardWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// serveHits primes hitBody's key with one miss, then serves b.N hits on
// it through Server.Handler. It returns the body length of a hit.
func serveHits(b *testing.B) int {
	s, err := New(Options{Runner: &experiments.Runner{Quota: 2_000, Seed: 1}})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	post := func() *discardWriter {
		w := &discardWriter{header: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(hitBody)))
		return w
	}
	if w := post(); w.code != http.StatusOK {
		b.Fatalf("priming miss: status %d", w.code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var w *discardWriter
	for i := 0; i < b.N; i++ {
		w = post()
	}
	b.StopTimer()
	if w.code != http.StatusOK {
		b.Fatalf("hit: status %d", w.code)
	}
	return w.n
}

// BenchmarkServeHit times one /v1/run cache hit through the service
// handler, without a network in between.
func BenchmarkServeHit(b *testing.B) { serveHits(b) }

// TestHitAllocatesLessThanBody: a hit writes the stored body as it is,
// so it allocates less than one copy of that body. Re-encoding the
// result on every hit allocated more than twice the body.
func TestHitAllocatesLessThanBody(t *testing.T) {
	var body int
	res := testing.Benchmark(func(b *testing.B) { body = serveHits(b) })
	if got := res.AllocedBytesPerOp(); got >= int64(body) {
		t.Fatalf("a hit allocates %d bytes, want fewer than its %d-byte body", got, body)
	}
}

// TestInFlightRunLogSurvivesHits: more hits than the log registry holds
// finish while a long run is in flight; the long run's event log must
// still be there to follow to its end.
func TestInFlightRunLogSurvivesHits(t *testing.T) {
	base, stop := context.WithCancel(context.Background())
	defer stop()
	s, ts := testServer(t, Options{
		Runner:      &experiments.Runner{Quota: 2_000, Seed: 1, Jobs: 2},
		BaseContext: base,
	})

	// The long run ends (as a partial result) only when base is cancelled.
	long := make(chan error, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run",
			strings.NewReader(`{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","quota":50000000}`))
		if err != nil {
			long <- err
			return
		}
		req.Header.Set("Respin-Run-Id", "long")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		long <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	for s.logs.get("long") == nil {
		if time.Now().After(deadline) {
			t.Fatal("long run was never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	for i := 0; i <= 128; i++ { // one miss, then 128 hits
		if resp, data := postRun(t, ts, hitBody, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	stop()
	if err := <-long; err != nil {
		t.Fatal(err)
	}

	resp, stream := httpGet(t, ts, "/v1/runs/long/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events of the long run: status %d: %s", resp.StatusCode, stream)
	}
	if !strings.Contains(string(stream), "event: done") {
		t.Fatalf("long run's stream not terminated: %.200q", stream)
	}
}

// TestClientChosenServerStyleRunID: a client names its run like the
// server's first assigned id, then more runs than the log registry holds
// arrive without a header. The server must skip the taken id, hand out
// distinct ids, and keep answering 200 once eviction starts.
func TestClientChosenServerStyleRunID(t *testing.T) {
	_, ts := testServer(t, Options{LogCapacity: 4})
	resp, data := postRun(t, ts, hitBody, map[string]string{"Respin-Run-Id": "r000001"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	seen := map[string]bool{"r000001": true}
	for i := 0; i < 12; i++ {
		resp, data := postRun(t, ts, hitBody, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, data)
		}
		id := resp.Header.Get("Respin-Run-Id")
		if seen[id] {
			t.Fatalf("request %d: run id %q handed out twice", i, id)
		}
		seen[id] = true
	}
}

// TestRunnerCountsStoreHits: hits are answered from the body store
// without reaching the runner, yet the runner's cache_hits count them,
// matching /v1/metrics run.cache_hits.
func TestRunnerCountsStoreHits(t *testing.T) {
	runner := &experiments.Runner{Quota: 2_000, Seed: 1}
	s, ts := testServer(t, Options{Runner: runner})
	for i := 0; i < 3; i++ {
		if resp, data := postRun(t, ts, hitBody, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	if got := runner.CacheHits(); got != 2 {
		t.Fatalf("runner cache hits = %d, want 2", got)
	}
	if got := s.tele.Snapshot().Value("run.cache_hits"); got != 2 {
		t.Fatalf("run.cache_hits = %v, want 2", got)
	}
	if got := runner.RunsStarted(); got != 1 {
		t.Fatalf("runs started = %d, want 1", got)
	}
}

// sweepBody is a fig9 preset sweep; sweepRunner keeps it to two
// benchmarks at a short quota.
const sweepBody = `{"schema_version":"respin/v1","preset":"fig9"}`

func sweepRunner() *experiments.Runner {
	return &experiments.Runner{Quota: 2_000, Seed: 1, Benches: []string{"fft", "ocean"}}
}

// BenchmarkSweep times a fig9 /v1/sweep through the service handler:
// cold on a fresh server, where every point simulates, and warm on a
// primed one, where every point is a store hit.
func BenchmarkSweep(b *testing.B) {
	newHandler := func(b *testing.B) http.Handler {
		s, err := New(Options{Runner: sweepRunner()})
		if err != nil {
			b.Fatal(err)
		}
		return s.Handler()
	}
	post := func(b *testing.B, h http.Handler) {
		w := &discardWriter{header: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(sweepBody)))
		if w.code != http.StatusOK {
			b.Fatalf("sweep: status %d", w.code)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			h := newHandler(b)
			b.StartTimer()
			post(b, h)
		}
	})
	b.Run("warm", func(b *testing.B) {
		h := newHandler(b)
		post(b, h)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h)
		}
	})
}
