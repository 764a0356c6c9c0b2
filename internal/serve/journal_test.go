package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	v1 "respin/internal/api/v1"
	"respin/internal/checkpoint"
	"respin/internal/experiments"
	"respin/internal/runstore"
	"respin/internal/sim"
	"respin/internal/telemetry"
)

// TestJournalServesCommittedAcrossRestart: a completed run's response
// is read from the journal by a fresh process when it is requested and
// served byte-identically without re-executing the simulation. The body
// read from disk counts as a cache hit and a journal hit; a repeat is
// an in-memory hit.
func TestJournalServesCommittedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	body := `{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","quota":2000}`

	_, ts1 := testServer(t, Options{Runner: &experiments.Runner{Quota: 2_000, Seed: 1}, Journal: dir})
	resp, first := postRun(t, ts1, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d: %s", resp.StatusCode, first)
	}

	// "Restart": a new server + runner over the same journal directory.
	r2 := &experiments.Runner{Quota: 2_000, Seed: 1}
	_, ts2 := testServer(t, Options{Runner: r2, Journal: dir})
	for i, wantHits := range []float64{1, 2} {
		resp, second := postRun(t, ts2, body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d after the restart: status %d: %s", i, resp.StatusCode, second)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("request %d after the restart differs from the original (%d vs %d bytes)", i, len(first), len(second))
		}
		m := metricsSnapshot(t, ts2)
		if hits, journal := m.Value("run.cache_hits"), m.Value("journal.hits"); hits != wantHits || journal != 1 {
			t.Fatalf("request %d: run.cache_hits %v, journal.hits %v; want %v and 1", i, hits, journal, wantHits)
		}
		if resumed := m.Value("journal.resumed"); resumed != 0 {
			t.Fatalf("request %d: journal.resumed %v for a recalled result, want 0", i, resumed)
		}
	}
	if started := r2.RunsStarted(); started != 0 {
		t.Fatalf("restarted server re-executed %d runs for a journaled result", started)
	}
}

// TestJournalResumesInterruptedRun reconstructs the crash state a
// SIGKILL leaves behind — a mid-run checkpoint, no result — and
// verifies that a fresh server, asked for the request again, resumes
// the run from the checkpoint (its event log has no run.start) and
// converges to the exact bytes an uninterrupted serve would have
// produced, committing its outcome in place of the checkpoint.
func TestJournalResumesInterruptedRun(t *testing.T) {
	dir := t.TempDir()
	req := v1.RunRequest{Config: "SH-STT", Bench: "radix", Quota: 12_000}
	want := cliBytes(t, req)
	ckpt := interrupt(t, dir, req)

	r := &experiments.Runner{Quota: 2_000, Seed: 1}
	_, ts := testServer(t, Options{Runner: r, Journal: dir})
	const id = "resumed"
	resp, got := postRun(t, ts, `{"schema_version":"respin/v1","config":"SH-STT","bench":"radix","quota":12000}`,
		map[string]string{"Respin-Run-Id": id})
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("re-POST of the interrupted run: status %d, %d bytes (want %d identical)", resp.StatusCode, len(got), len(want))
	}
	if started := r.RunsStarted(); started != 1 {
		t.Fatalf("re-POST started %d runs, want 1", started)
	}
	if resumed := metricsSnapshot(t, ts).Value("journal.resumed"); resumed != 1 {
		t.Fatalf("journal.resumed %v after resuming the run, want 1", resumed)
	}
	types := eventTypes(t, ts, id)
	if len(types) == 0 || types[len(types)-1] != "run.end" {
		t.Fatalf("event log %v does not end the run", types)
	}
	for _, typ := range types {
		if typ == "run.start" {
			t.Fatal("the run started at cycle 0 instead of resuming from its checkpoint")
		}
	}
	if got := recalled(t, dir, req); !bytes.Equal(got, want) {
		t.Fatal("the committed outcome does not encode to the uninterrupted bytes")
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the checkpoint outlived the commit: %v", err)
	}
}

// TestJournalOpenReadsNothing: opening a server over a journal that
// holds a committed result, a damaged result and an interrupted
// checkpoint reads none of them and starts no run. The interrupted run
// executes only once its request arrives. A journal another model
// stamped is left as it is until a request arrives.
func TestJournalOpenReadsNothing(t *testing.T) {
	dir := t.TempDir()
	commitRun(t, dir, v1.RunRequest{Config: "SH-STT", Bench: "fft", Quota: 2_000})
	damaged := entryPath(t, dir, v1.RunRequest{Config: "SH-STT", Bench: "lu", Quota: 2_000}, runstore.ResultSuffix)
	if err := os.WriteFile(damaged, []byte(`{"schema_version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	interrupt(t, dir, v1.RunRequest{Config: "SH-STT", Bench: "radix", Quota: 12_000})

	r := &experiments.Runner{Quota: 2_000, Seed: 1}
	_, ts := testServer(t, Options{Runner: r, Journal: dir})
	time.Sleep(200 * time.Millisecond)
	m := metricsSnapshot(t, ts)
	if started, hits := m.Value("run.runs_started"), m.Value("journal.hits"); started != 0 || hits != 0 {
		t.Fatalf("before any request: run.runs_started %v, journal.hits %v; want 0 and 0", started, hits)
	}
	resp, got := postRun(t, ts, `{"schema_version":"respin/v1","config":"SH-STT","bench":"radix","quota":12000}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("interrupted request: status %d: %s", resp.StatusCode, got)
	}
	if started := r.RunsStarted(); started != 1 {
		t.Fatalf("after its request: %d runs started, want 1", started)
	}

	// Nor does opening a journal another model stamped clear it: that
	// waits for the first request.
	foreign := stampedDir(t, sim.ModelVersion+1)
	entry := entryPath(t, foreign, v1.RunRequest{Config: "SH-STT", Bench: "fft", Quota: 2_000}, runstore.ResultSuffix)
	if err := os.WriteFile(entry, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	testServer(t, Options{Journal: foreign})
	if _, err := os.Stat(entry); err != nil {
		t.Fatalf("opening a server over another model's journal removed its entry: %v", err)
	}
}

// TestJournalServesRunnerStore: the journal is the batch runner's run
// store. A server over a directory a Runner filled answers the fig9
// sweep without a run, byte-identically to a server without a journal;
// a Runner over a directory a server filled recalls every point, with
// the results of a runner without a store.
func TestJournalServesRunnerStore(t *testing.T) {
	fresh := sweepRunner()
	runs := fresh.Figure9Runs()
	want, errs := fresh.Do(runs...)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	_, plain := testServer(t, Options{Runner: sweepRunner()})
	wantBody := postSweep(t, plain)

	byRunner := t.TempDir()
	filler := sweepRunner()
	filler.CheckpointDir = byRunner
	if _, errs := filler.Do(runs...); errors.Join(errs...) != nil {
		t.Fatal(errs)
	}
	_, ts := testServer(t, Options{Runner: sweepRunner(), Journal: byRunner})
	if got := postSweep(t, ts); !bytes.Equal(got, wantBody) {
		t.Fatalf("sweep over the runner's store differs from a journal-less server's (%d vs %d bytes)", len(got), len(wantBody))
	}
	m := metricsSnapshot(t, ts)
	if started, hits := m.Value("run.runs_started"), m.Value("journal.hits"); started != 0 || hits != float64(len(runs)) {
		t.Fatalf("sweep over the runner's store: run.runs_started %v, journal.hits %v; want 0 and %d", started, hits, len(runs))
	}

	byServer := t.TempDir()
	_, ts = testServer(t, Options{Runner: sweepRunner(), Journal: byServer})
	postSweep(t, ts)
	r := sweepRunner()
	r.CheckpointDir = byServer
	got, errs := r.Do(runs...)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if started := r.RunsStarted(); started != 0 {
		t.Fatalf("runner over the server's journal started %d runs, want 0", started)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results recalled from the server's journal differ from fresh ones")
	}
}

// postSweep posts the fig9 preset sweep and returns the response body.
func postSweep(t *testing.T, ts *httptest.Server) []byte {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, data)
	}
	return data
}

// runOf is the run a server executes for req.
func runOf(t *testing.T, req v1.RunRequest) experiments.Run {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	cfg, opts, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return experiments.Run{Label: req.Label(), Config: cfg, Bench: req.Bench, Opts: opts}
}

// entryPath is the path of the file with suffix of req's run-store
// entry, for tests that fabricate or damage it.
func entryPath(t *testing.T, dir string, req v1.RunRequest, suffix string) string {
	t.Helper()
	run := runOf(t, req)
	key, err := sim.RunKey(run.Config, run.Bench, run.Opts)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, runstore.Name(key)+suffix)
}

// stampedDir returns a new journal directory stamped for model version
// model, so the entries a test fabricates there are the store's under
// that model.
func stampedDir(t *testing.T, model int) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, runstore.StampFile), runstore.Stamp(model), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// journalRunner is a runner over the journal in dir, as a server keeps
// it.
func journalRunner(t *testing.T, dir string) *experiments.Runner {
	t.Helper()
	r := &experiments.Runner{CheckpointDir: dir, CheckpointEvery: journalEvery}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	return r
}

// commitRun records req's outcome in the journal in dir.
func commitRun(t *testing.T, dir string, req v1.RunRequest) {
	t.Helper()
	run := runOf(t, req)
	run.Opts.Telemetry = telemetry.New()
	if _, err := journalRunner(t, dir).Exec(context.Background(), run); err != nil {
		t.Fatal(err)
	}
}

// recalled returns the body a server encodes for req from the outcome
// the journal in dir holds, failing unless that outcome is recalled
// without a run.
func recalled(t *testing.T, dir string, req v1.RunRequest) []byte {
	t.Helper()
	r := journalRunner(t, dir)
	run := runOf(t, req)
	run.Opts.Telemetry = telemetry.New()
	res, runErr := r.Exec(context.Background(), run)
	if r.RunsStarted() != 0 || r.Recalls() != 1 {
		t.Fatalf("%s: the journal holds no outcome (%d runs started)", run.Label, r.RunsStarted())
	}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	body, err := encodeResult(req, res, runErr)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// interrupt leaves in the journal in dir the state a crash leaves of
// req's run: a checkpoint taken at cycle 2000, no result. It returns
// the checkpoint's path.
func interrupt(t *testing.T, dir string, req v1.RunRequest) string {
	t.Helper()
	run := runOf(t, req)
	key, err := sim.RunKey(run.Config, run.Bench, run.Opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := runstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := st.Begin(key)
	if err != nil {
		t.Fatal(err)
	}
	spec.EveryCycles, spec.AtCycle = 0, 2_000
	if _, _, err := sim.RunOrResume(context.Background(), run.Config, run.Bench, run.Opts, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(entryPath(t, dir, req, runstore.ResultSuffix)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the interrupted run has a result: %v", err)
	}
	return spec.Path
}

// eventTypes returns the types of the events in run id's log, in order.
func eventTypes(t *testing.T, ts *httptest.Server, id string) []string {
	t.Helper()
	resp, stream := httpGet(t, ts, "/v1/runs/"+id+"/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events of %s: status %d", id, resp.StatusCode)
	}
	var types []string
	for _, line := range strings.Split(string(stream), "\n") {
		if payload, ok := strings.CutPrefix(line, "data: "); ok && payload != "{}" {
			evs, err := telemetry.ParseEvents([]byte(payload))
			if err != nil {
				t.Fatalf("bad event line %q: %v", line, err)
			}
			for _, ev := range evs {
				types = append(types, ev.Type)
			}
		}
	}
	return types
}

// TestJournalSkipsDamagedResults: a stored outcome whose record is
// damaged, of another layout, or another run's is not recalled. Its
// request simulates once and returns the CLI bytes, and the fresh
// outcome replaces the damaged file.
func TestJournalSkipsDamagedResults(t *testing.T) {
	req := v1.RunRequest{Config: "SH-STT", Bench: "fft", Quota: 2_000}
	other := v1.RunRequest{Config: "SH-STT", Bench: "lu", Quota: 2_000}
	want := cliBytes(t, req)
	src := t.TempDir()
	commitRun(t, src, req)
	commitRun(t, src, other)
	read := func(req v1.RunRequest) []byte {
		data, err := os.ReadFile(entryPath(t, src, req, runstore.ResultSuffix))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	record, otherRecord := read(req), read(other)
	unknown, err := checkpoint.Encode(1, struct{ Bogus int }{1})
	if err != nil {
		t.Fatal(err)
	}
	const body = `{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","quota":2000}`
	cases := []struct {
		name    string
		damaged []byte
	}{
		{"truncated", record[:len(record)/2]},
		{"trailing data", append(bytes.Clone(record), "{}\n"...)},
		{"trailing close bracket", append(bytes.Clone(record), "}\n"...)},
		{"flipped byte", func() []byte {
			b := bytes.Clone(record)
			b[len(b)-1] ^= 1
			return b
		}()},
		// The container header's version field (bytes 8-11).
		{"wrong schema_version", func() []byte {
			b := bytes.Clone(record)
			b[11]++
			return b
		}()},
		{"unknown field", unknown},
		{"wrong key", otherRecord},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := stampedDir(t, sim.ModelVersion)
			if err := os.WriteFile(entryPath(t, dir, req, runstore.ResultSuffix), c.damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			_, ts := testServer(t, Options{Journal: dir})
			resp, got := postRun(t, ts, body, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("re-POST: status %d: %s", resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("re-POST body differs from CLI output (%d vs %d bytes)", len(got), len(want))
			}
			m := metricsSnapshot(t, ts)
			if started, hits := m.Value("run.runs_started"), m.Value("journal.hits"); started != 1 || hits != 0 {
				t.Fatalf("run.runs_started %v, journal.hits %v; want 1 and 0", started, hits)
			}
			if got := recalled(t, dir, req); !bytes.Equal(got, want) {
				t.Fatal("the damaged record was not replaced by the fresh outcome")
			}
		})
	}
}

// TestJournalOldLayoutCheckpointRestartsFresh: a checkpoint left by an
// older snapshot layout at an interrupted request's .ckpt path is
// refused with ErrVersion, and both sim.RunOrResume and the re-POSTed
// request fall back to a fresh run that converges to the uninterrupted
// bytes.
// Version 1 held dense cache arrays; version 2 encoded the sparse
// arrays, the directory and the statistics through reflective gob;
// version 3 held 64-bit LRU stamps and write stamps for every way.
func TestJournalOldLayoutCheckpointRestartsFresh(t *testing.T) {
	for _, version := range []uint32{1, 2, 3} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) { oldLayoutRestartsFresh(t, version) })
	}
}

// oldLayoutRestartsFresh runs the old-layout check for one version.
func oldLayoutRestartsFresh(t *testing.T, version uint32) {
	dir := stampedDir(t, sim.ModelVersion)
	req := v1.RunRequest{Config: "SH-STT", Bench: "radix", Quota: 12_000}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	want := cliBytes(t, req)

	path := entryPath(t, dir, req, runstore.CheckpointSuffix)
	writeOld := func() {
		t.Helper()
		old := struct {
			Bench string
			Now   uint64
			Tags  []uint64
		}{Bench: req.Bench, Now: 2_000, Tags: make([]uint64, 64)}
		if err := checkpoint.Save(path, version, old); err != nil {
			t.Fatal(err)
		}
	}
	writeOld()
	var ev *checkpoint.ErrVersion
	if _, err := sim.CheckpointInfo(path); !errors.As(err, &ev) || ev.Got != version || ev.Want != 4 {
		t.Fatalf("old-layout checkpoint: got %v, want ErrVersion{Got: %d, Want: 4}", err, version)
	}

	cfg, opts, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	opts.Telemetry = telemetry.New()
	full, err := sim.Run(cfg, req.Bench, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Telemetry = telemetry.New()
	spec := sim.CheckpointSpec{Path: path, EveryCycles: journalEvery}
	res, _, err := sim.RunOrResume(context.Background(), cfg, req.Bench, opts, spec)
	if err != nil {
		t.Fatal(err)
	}
	fj, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fj, rj) {
		t.Fatal("RunOrResume over an old-layout checkpoint diverged from an uninterrupted run")
	}

	// The run above re-armed checkpointing at the same path; put the
	// old file back and re-POST the request to a restarted server.
	writeOld()
	r := &experiments.Runner{Quota: 2_000, Seed: 1}
	_, ts := testServer(t, Options{Runner: r, Journal: dir})
	resp, served := postRun(t, ts, `{"schema_version":"respin/v1","config":"SH-STT","bench":"radix","quota":12000}`, nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(served, want) {
		t.Fatalf("re-POST: status %d, %d bytes (want %d identical)", resp.StatusCode, len(served), len(want))
	}
	if started := r.RunsStarted(); started != 1 {
		t.Fatalf("re-POST started %d runs, want 1", started)
	}
	if got := recalled(t, dir, req); !bytes.Equal(got, want) {
		t.Fatal("the committed outcome differs from an uninterrupted run's")
	}
}

// TestWearOutRoundTripsThroughJournal: a wear-out is a recorded
// outcome; its StatusWearOut envelope must survive a restart and be
// read from the journal without re-running the simulation.
func TestWearOutRoundTripsThroughJournal(t *testing.T) {
	dir := t.TempDir()
	body := `{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","quota":30000,
		"endurance":{"budget":4,"sigma":0.1}}`

	_, ts1 := testServer(t, Options{Runner: &experiments.Runner{Quota: 2_000, Seed: 1}, Journal: dir})
	resp, first := postRun(t, ts1, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wear-out run: status %d: %s", resp.StatusCode, first)
	}
	var doc v1.RunResult
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != v1.StatusWearOut || doc.Detail == "" {
		t.Fatalf("status = %q (%q), want wear-out with a diagnostic", doc.Status, doc.Detail)
	}

	r2 := &experiments.Runner{Quota: 2_000, Seed: 1}
	_, ts2 := testServer(t, Options{Runner: r2, Journal: dir})
	resp, second := postRun(t, ts2, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wear-out after the restart: status %d: %s", resp.StatusCode, second)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("wear-out envelope after the restart differs from the original")
	}
	if started := r2.RunsStarted(); started != 0 {
		t.Fatalf("restarted server re-ran a recorded wear-out (%d runs)", started)
	}
}

// TestRetryAfterSeconds pins the 429 hint's shape: never below 1s,
// jittered across a window that widens with queue depth and caps at
// 30s.
func TestRetryAfterSeconds(t *testing.T) {
	lo := func() float64 { return 0 }
	hi := func() float64 { return 0.999 }
	if got := retryAfterSeconds(0, lo); got != 1 {
		t.Fatalf("empty queue, r=0: %d, want 1", got)
	}
	if got := retryAfterSeconds(0, hi); got != 1 {
		t.Fatalf("empty queue, r->1: %d, want 1 (window is 1s)", got)
	}
	if got := retryAfterSeconds(40, hi); got != 11 {
		t.Fatalf("depth 40, r->1: %d, want 11", got)
	}
	if got := retryAfterSeconds(1_000_000, hi); got != 30 {
		t.Fatalf("huge depth, r->1: %d, want the 30s cap", got)
	}
	// Jitter actually spreads the hint across the window.
	seen := map[int]bool{}
	for i := 0; i < 10; i++ {
		r := float64(i) / 10
		seen[retryAfterSeconds(100, func() float64 { return r })] = true
	}
	if len(seen) < 5 {
		t.Fatalf("hints not spread by jitter: %v", seen)
	}
}

// TestJournalIgnoresOtherModelResults: a journal stamped for another
// sim.ModelVersion is cleared before its first read, so a recorded
// outcome it holds for the very run asked for, under the entry's
// current name, is never read. The request re-executes once, its
// outcome is committed under the current model, and the directory then
// holds that entry and the current stamp alone.
func TestJournalIgnoresOtherModelResults(t *testing.T) {
	req := v1.RunRequest{Config: "SH-STT", Bench: "fft", Quota: 2_000}
	want := cliBytes(t, req)
	src := t.TempDir()
	commitRun(t, src, req)
	record, err := os.ReadFile(entryPath(t, src, req, runstore.ResultSuffix))
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []int{sim.ModelVersion - 1, sim.ModelVersion + 1} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			dir := stampedDir(t, version)
			entry := entryPath(t, dir, req, runstore.ResultSuffix)
			if err := os.WriteFile(entry, record, 0o644); err != nil {
				t.Fatal(err)
			}
			_, ts := testServer(t, Options{Journal: dir})
			resp, got := postRun(t, ts, `{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","quota":2000}`, nil)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("re-POST: status %d, %d bytes (want %d fresh bytes)", resp.StatusCode, len(got), len(want))
			}
			m := metricsSnapshot(t, ts)
			if started, hits := m.Value("run.runs_started"), m.Value("journal.hits"); started != 1 || hits != 0 {
				t.Fatalf("run.runs_started %v, journal.hits %v; want 1 and 0", started, hits)
			}
			if got := recalled(t, dir, req); !bytes.Equal(got, want) {
				t.Fatal("the fresh outcome was not committed under the current model")
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			if len(names) != 2 || names[0] != filepath.Base(entry) || names[1] != runstore.StampFile {
				t.Fatalf("journal holds %v, want the fresh entry and the stamp", names)
			}
			if stamp, err := os.ReadFile(filepath.Join(dir, runstore.StampFile)); err != nil || !bytes.Equal(stamp, runstore.Stamp(sim.ModelVersion)) {
				t.Fatalf("stamp %q, %v; want the current model's", stamp, err)
			}
		})
	}
}
