package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
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
// produced, committing them in place of the checkpoint.
func TestJournalResumesInterruptedRun(t *testing.T) {
	dir := t.TempDir()
	req := v1.RunRequest{Config: "SH-STT", Bench: "radix", Quota: 12_000}
	want := cliBytes(t, req)
	j := openStore(t, dir)
	ckpt := interrupt(t, j, req)

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
	types := eventTypes(t, ts, id)
	if len(types) == 0 || types[len(types)-1] != "run.end" {
		t.Fatalf("event log %v does not end the run", types)
	}
	for _, typ := range types {
		if typ == "run.start" {
			t.Fatal("the run started at cycle 0 instead of resuming from its checkpoint")
		}
	}
	if file, err := j.Result(mustKey(t, req)); err != nil || !bytes.Equal(file, want) {
		t.Fatalf("the resumed result was not committed (err %v)", err)
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the checkpoint outlived the commit: %v", err)
	}
}

// TestJournalOpenReadsNothing: opening a server over a journal that
// holds a committed result, a damaged result and an interrupted
// checkpoint reads none of them and starts no run. The interrupted run
// executes only once its request arrives.
func TestJournalOpenReadsNothing(t *testing.T) {
	dir := t.TempDir()
	j := openStore(t, dir)
	done := v1.RunRequest{Config: "SH-STT", Bench: "fft", Quota: 2_000}
	if err := j.Commit(mustKey(t, done), cliBytes(t, done)); err != nil {
		t.Fatal(err)
	}
	damaged := v1.RunRequest{Config: "SH-STT", Bench: "lu", Quota: 2_000}
	if err := j.Commit(mustKey(t, damaged), []byte(`{"schema_version":`)); err != nil {
		t.Fatal(err)
	}
	interrupted := v1.RunRequest{Config: "SH-STT", Bench: "radix", Quota: 12_000}
	interrupt(t, j, interrupted)

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
}

// openStore opens the run store of a journal directory, for tests that
// fabricate its files.
func openStore(t *testing.T, dir string) *runstore.Store {
	t.Helper()
	st, err := runstore.Open(dir, journalEvery)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// interrupt leaves in st the state a crash leaves of req's journaled
// run: a checkpoint taken at cycle 2000, no result. It returns the
// checkpoint's path.
func interrupt(t *testing.T, st *runstore.Store, req v1.RunRequest) string {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	cfg, opts, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	spec := sim.CheckpointSpec{Path: st.Begin(req.Key()).Path, AtCycle: 2_000}
	if _, err := sim.RunOrResume(context.Background(), cfg, req.Bench, opts, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Result(req.Key()); !errors.Is(err, os.ErrNotExist) {
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

// TestJournalSkipsDamagedResults: a committed result that fails the
// strict decode, or holds an outcome that is not recorded, is not
// served. Its request simulates once and returns the CLI bytes, which
// replace the damaged file.
func TestJournalSkipsDamagedResults(t *testing.T) {
	req := v1.RunRequest{Config: "SH-STT", Bench: "fft", Quota: 2_000}
	want := cliBytes(t, req)
	key := mustKey(t, req)
	const body = `{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","quota":2000}`
	cases := []struct {
		name   string
		damage func(b []byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"trailing data", func(b []byte) []byte { return append(b, "{}\n"...) }},
		{"trailing close bracket", func(b []byte) []byte { return append(b, "}\n"...) }},
		{"wrong schema_version", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"respin/v1"`), []byte(`"respin/v0"`), 1)
		}},
		{"unknown field", func(b []byte) []byte {
			return bytes.Replace(b, []byte("{"), []byte(`{"bogus": 1,`), 1)
		}},
		{"partial status", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"status": "complete"`), []byte(`"status": "partial"`), 1)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			j := openStore(t, dir)
			damaged := c.damage(bytes.Clone(want))
			if err := j.Commit(key, damaged); err != nil {
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
			if file, err := j.Result(key); err != nil || !bytes.Equal(file, want) {
				t.Fatalf("the damaged result was not replaced by the fresh one (err %v)", err)
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
	dir := t.TempDir()
	req := v1.RunRequest{Config: "SH-STT", Bench: "radix", Quota: 12_000}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	want := cliBytes(t, req)

	j := openStore(t, dir)
	key := req.Key()
	path := j.Begin(key).Path
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
	res, err := sim.RunOrResume(context.Background(), cfg, req.Bench, opts, spec)
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
	if got, err := j.Result(key); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("committed result differs from an uninterrupted run (err %v)", err)
	}
	if started := r.RunsStarted(); started != 1 {
		t.Fatalf("re-POST started %d runs, want 1", started)
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

// TestJournalIgnoresOtherModelResults: a committed result whose file
// was written under another sim.ModelVersion is never read, even
// though it decodes as a recorded outcome for the same request. The
// request re-executes once and converges to the current model's bytes.
func TestJournalIgnoresOtherModelResults(t *testing.T) {
	req := v1.RunRequest{Config: "SH-STT", Bench: "fft", Quota: 2_000}
	want := cliBytes(t, req)
	key := mustKey(t, req)
	// The other model's numbers: same request, different cycle count.
	stale := regexp.MustCompile(`"cycles": \d+`).ReplaceAll(bytes.Clone(want), []byte(`"cycles": 1`))
	if bytes.Equal(stale, want) {
		t.Fatal("test setup: the stale body equals the fresh one")
	}
	if k, err := resultKey(stale); err != nil || k != key {
		t.Fatalf("test setup: the stale body does not decode as the request's result (%v)", err)
	}
	for _, version := range []int{sim.ModelVersion - 1, sim.ModelVersion + 1} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, runstore.Name(version, key)+runstore.ResultSuffix)
			if err := os.WriteFile(path, stale, 0o644); err != nil {
				t.Fatal(err)
			}
			_, ts := testServer(t, Options{Journal: dir})
			resp, got := postRun(t, ts, `{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","quota":2000}`, nil)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("re-POST: status %d, %d bytes (want %d fresh bytes)", resp.StatusCode, len(got), len(want))
			}
			if started := metricsSnapshot(t, ts).Value("run.runs_started"); started != 1 {
				t.Fatalf("run.runs_started = %v, want 1", started)
			}
			if file, err := openStore(t, dir).Result(key); err != nil || !bytes.Equal(file, want) {
				t.Fatalf("the fresh result was not committed under the current model (err %v)", err)
			}
		})
	}
}
