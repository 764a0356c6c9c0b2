package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	v1 "respin/internal/api/v1"
	"respin/internal/experiments"
	"respin/internal/sim"
	"respin/internal/telemetry"
)

// testServer builds a Server on a QuickRunner-sized pool plus an
// httptest frontend.
func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Runner == nil {
		opts.Runner = &experiments.Runner{Quota: 2_000, Seed: 1}
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// cliBytes produces exactly what `respin-sim -metrics` writes for req:
// the canonical v1.RunResult encoding of a run with a metrics
// collector attached.
func cliBytes(t *testing.T, req v1.RunRequest) []byte {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	cfg, opts, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	opts.Telemetry = telemetry.New()
	res, runErr := sim.RunContext(context.Background(), cfg, req.Bench, opts)
	doc, err := v1.NewResult(req, res, runErr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := v1.EncodeBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postRun(t *testing.T, ts *httptest.Server, body string, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestServedMatchesCLI is the acceptance criterion: the /v1/run
// response body is byte-identical to respin-sim -metrics output for
// the same request, across three Table IV configurations.
func TestServedMatchesCLI(t *testing.T) {
	_, ts := testServer(t, Options{})
	for _, cfg := range []string{"SH-STT", "SH-STT-CC", "PR-SRAM-NT"} {
		body := fmt.Sprintf(`{"schema_version":"respin/v1","config":%q,"bench":"fft","quota":2000}`, cfg)
		resp, got := postRun(t, ts, body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", cfg, resp.StatusCode, got)
		}
		want := cliBytes(t, v1.RunRequest{Config: cfg, Bench: "fft", Quota: 2_000})
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: served body differs from CLI output (%d vs %d bytes)", cfg, len(got), len(want))
		}
		if resp.Header.Get("Respin-Run-Id") == "" {
			t.Fatalf("%s: response carries no run id", cfg)
		}
	}
}

// TestConcurrentIdenticalRequests: 8 clients post the same request at
// once; every response is byte-identical to the CLI output, and all
// but the singleflight leader count as cache hits.
func TestConcurrentIdenticalRequests(t *testing.T) {
	_, ts := testServer(t, Options{Queue: 16})
	const body = `{"schema_version":"respin/v1","config":"SH-STT","bench":"ocean","quota":2000}`
	want := cliBytes(t, v1.RunRequest{Config: "SH-STT", Bench: "ocean", Quota: 2_000})

	const clients = 8
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postRun(t, ts, body, nil)
			if resp.StatusCode == http.StatusOK {
				bodies[i] = data
			}
		}(i)
	}
	wg.Wait()
	for i, data := range bodies {
		if data == nil {
			t.Fatalf("client %d was not served", i)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("client %d body differs from CLI output", i)
		}
	}

	snap := metricsSnapshot(t, ts)
	if hits := snap.Value("run.cache_hits"); hits < clients-1 {
		t.Fatalf("run.cache_hits = %v, want >= %d", hits, clients-1)
	}
	if started := snap.Value("run.runs_started"); started != 1 {
		t.Fatalf("run.runs_started = %v, want 1 (singleflight)", started)
	}
}

// TestWorkersHintIsHit: workers is an accepted, ignored hint, so a
// request that differs from a stored one only in workers is a hit with
// a byte-identical body.
func TestWorkersHintIsHit(t *testing.T) {
	_, ts := testServer(t, Options{})
	const body = `{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","quota":2000`
	resp, first := postRun(t, ts, body+`}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, first)
	}
	resp, second := postRun(t, ts, body+`,"workers":4}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workers=4: status %d: %s", resp.StatusCode, second)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("workers=4 body differs from the stored body")
	}
	snap := metricsSnapshot(t, ts)
	if started := snap.Value("run.runs_started"); started != 1 {
		t.Fatalf("run.runs_started = %v, want 1", started)
	}
	if hits := snap.Value("run.cache_hits"); hits != 1 {
		t.Fatalf("run.cache_hits = %v, want 1", hits)
	}
}

func metricsSnapshot(t *testing.T, ts *httptest.Server) *telemetry.Snapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		SchemaVersion string              `json:"schema_version"`
		Metrics       *telemetry.Snapshot `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != v1.SchemaVersion {
		t.Fatalf("metrics doc version %q", doc.SchemaVersion)
	}
	return doc.Metrics
}

// TestBackpressure: a full admission queue answers 429 + Retry-After;
// a draining server answers 503; releasing capacity admits again.
func TestBackpressure(t *testing.T) {
	s, ts := testServer(t, Options{Queue: 2})
	s.tokens <- struct{}{}
	s.tokens <- struct{}{}

	body := `{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","quota":2000}`
	resp, data := postRun(t, ts, body, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var ed struct {
		SchemaVersion string `json:"schema_version"`
		Error         string `json:"error"`
	}
	if err := json.Unmarshal(data, &ed); err != nil || ed.SchemaVersion != v1.SchemaVersion || ed.Error == "" {
		t.Fatalf("429 body is not a versioned error doc: %s", data)
	}

	<-s.tokens
	<-s.tokens
	if resp, data = postRun(t, ts, body, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("freed queue: status %d: %s", resp.StatusCode, data)
	}

	s.BeginDrain()
	if resp, _ = postRun(t, ts, body, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d", resp.StatusCode)
	}
	resp, data = httpGet(t, ts, "/v1/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"draining": true`) {
		t.Fatalf("draining healthz = %d %s", resp.StatusCode, data)
	}
}

func httpGet(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHealth(t *testing.T) {
	_, ts := testServer(t, Options{Queue: 3})
	resp, data := httpGet(t, ts, "/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h v1.Health
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.SchemaVersion != v1.SchemaVersion || h.Status != "ok" || h.QueueFree != 3 || h.InFlight != 0 {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestSSEEvents: the run's telemetry JSONL is replayable as SSE after
// the run completes, under the client-chosen Respin-Run-Id.
func TestSSEEvents(t *testing.T) {
	_, ts := testServer(t, Options{})
	body := `{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","quota":2000}`
	resp, data := postRun(t, ts, body, map[string]string{"Respin-Run-Id": "sse-test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Respin-Run-Id"); got != "sse-test" {
		t.Fatalf("run id = %q, want sse-test", got)
	}

	resp, stream := httpGet(t, ts, "/v1/runs/sse-test/events")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("events status %d type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	text := string(stream)
	if !strings.Contains(text, "event: done") {
		t.Fatalf("stream not terminated: %q", text)
	}
	var events int
	for _, line := range strings.Split(text, "\n") {
		if payload, ok := strings.CutPrefix(line, "data: "); ok && strings.HasPrefix(payload, "{") && payload != "{}" {
			ev, err := telemetry.ParseEvents([]byte(payload))
			if err != nil {
				t.Fatalf("bad event line %q: %v", line, err)
			}
			events += len(ev)
		}
	}
	if events == 0 {
		t.Fatal("no telemetry events streamed")
	}

	if resp, _ := httpGet(t, ts, "/v1/runs/nope/events"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run id: status %d", resp.StatusCode)
	}
}

// TestSweep: explicit points run concurrently but come back in request
// order; an unrunnable point degrades to a status:"error" entry.
func TestSweep(t *testing.T) {
	_, ts := testServer(t, Options{})
	body := `{"schema_version":"respin/v1","points":[
		{"config":"SH-STT","bench":"fft","quota":2000},
		{"config":"PR-SRAM-NT","bench":"fft","quota":2000}
	]}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, data)
	}
	var sr v1.SweepResult
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 2 ||
		sr.Results[0].Request.Config != "SH-STT" || sr.Results[1].Request.Config != "PR-SRAM-NT" {
		t.Fatalf("sweep results out of order: %+v", sr.Results)
	}
	for i, r := range sr.Results {
		if r.Status != v1.StatusComplete || len(r.Result) == 0 {
			t.Fatalf("point %d = %s %q", i, r.Status, r.Error)
		}
	}

	// The sweep shares the singleflight cache with /v1/run: the same
	// point served again is a cache hit with an identical payload.
	single := fmt.Sprintf(`{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","quota":2000}`)
	runResp, runBody := postRun(t, ts, single, nil)
	if runResp.StatusCode != http.StatusOK {
		t.Fatalf("post-sweep run status %d", runResp.StatusCode)
	}
	var rr v1.RunResult
	if err := json.Unmarshal(runBody, &rr); err != nil {
		t.Fatal(err)
	}
	// Raw payloads re-indent with their nesting depth, so compare
	// compacted bytes.
	if !bytes.Equal(compact(t, rr.Result), compact(t, sr.Results[0].Result)) {
		t.Fatal("sweep and run results for the same point differ")
	}
}

func compact(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepPresetExpansion: presets expand into normalized Figure 9 /
// evaluation run sets without executing anything.
func TestSweepPresetExpansion(t *testing.T) {
	s, _ := testServer(t, Options{Runner: &experiments.Runner{
		Quota: 2_000, Seed: 1, Benches: []string{"fft", "ocean"},
	}})
	pts, err := s.sweepPoints(v1.SweepRequest{Preset: "fig9"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("fig9 preset expanded to nothing")
	}
	seen := map[string]bool{}
	for _, p := range pts {
		if p.SchemaVersion != v1.SchemaVersion || p.Quota != 2_000 {
			t.Fatalf("preset point not normalized: %+v", p)
		}
		if seen[p.Key()] {
			t.Fatalf("duplicate preset point %s", p.Key())
		}
		seen[p.Key()] = true
	}
	if !seen[mustKey(t, v1.RunRequest{Config: "PR-SRAM-NT", Bench: "fft", Quota: 2_000})] {
		t.Fatal("fig9 preset misses the baseline point")
	}
}

func mustKey(t *testing.T, req v1.RunRequest) string {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	return req.Key()
}

// TestRequestValidation: schema violations and impossible requests are
// 400s with versioned error docs that name the problem.
func TestRequestValidation(t *testing.T) {
	_, ts := testServer(t, Options{})
	cases := []struct {
		body string
		want string
	}{
		{`{"config":"SH-STT","bench":"fft"}`, "schema_version"},
		{`{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","typo":1}`, "typo"},
		{`{"schema_version":"respin/v1","config":"nope","bench":"fft"}`, "SH-STT"},
		{`{"schema_version":"respin/v1","config":"SH-STT","bench":"nope"}`, "raytrace"},
		{`{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","scale":"nope"}`, "small, medium, large"},
		{`{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","faults":{"kill_cores":99}}`, "kill"},
		{`{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","workers":-1}`, "negative worker count"},
	}
	for _, c := range cases {
		resp, data := postRun(t, ts, c.body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.body, resp.StatusCode)
			continue
		}
		var ed v1.ErrorDoc
		if err := json.Unmarshal(data, &ed); err != nil || ed.SchemaVersion != v1.SchemaVersion {
			t.Errorf("%s: not a versioned error doc: %s", c.body, data)
			continue
		}
		if !strings.Contains(ed.Error, c.want) {
			t.Errorf("%s: error %q does not mention %q", c.body, ed.Error, c.want)
		}
	}
}

// TestTimeoutYieldsPartial: a deadline the run cannot meet produces a
// StatusPartial result, not an error, and never poisons the cache.
func TestTimeoutYieldsPartial(t *testing.T) {
	_, ts := testServer(t, Options{})
	body := `{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","quota":50000000,"timeout_ms":30}`
	resp, data := postRun(t, ts, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var rr v1.RunResult
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != v1.StatusPartial {
		t.Fatalf("status = %q, want partial", rr.Status)
	}

	snap := metricsSnapshot(t, ts)
	if done := snap.Value("run.runs_completed"); done != 0 {
		t.Fatalf("partial run counted as completed: %v", done)
	}
}
