package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"testing"
	"time"

	v1 "respin/internal/api/v1"
	"respin/internal/checkpoint"
	"respin/internal/experiments"
	"respin/internal/sim"
	"respin/internal/telemetry"
)

// TestJournalServesCommittedAcrossRestart: a completed run's response
// is rehydrated from the journal by a fresh process and served
// byte-identically without re-executing the simulation.
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
	resp, second := postRun(t, ts2, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed run: status %d: %s", resp.StatusCode, second)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("journal-replayed response differs from the original (%d vs %d bytes)", len(first), len(second))
	}
	if started := r2.RunsStarted(); started != 0 {
		t.Fatalf("restarted server re-executed %d runs for a journaled result", started)
	}
}

// TestJournalResumesInterruptedRun reconstructs the crash state a
// SIGKILL leaves behind — a journaled request plus a mid-run
// checkpoint, no result — and verifies a fresh server recovers it in
// the background, converging to the exact bytes an uninterrupted serve
// would have produced.
func TestJournalResumesInterruptedRun(t *testing.T) {
	dir := t.TempDir()
	req := v1.RunRequest{Config: "SH-STT", Bench: "radix", Quota: 12_000}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	want := cliBytes(t, req)

	// Fabricate the interrupted state: WAL entry + a checkpoint from a
	// run cut off after cycle 2000.
	j, pending, err := openJournal(dir, 0, noSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh journal has %d pending runs", len(pending))
	}
	key := req.Key()
	if err := j.logRequest(key, req); err != nil {
		t.Fatal(err)
	}
	cfg, opts, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	opts.Checkpoint = sim.CheckpointSpec{Path: j.ckptPath(key), AtCycle: 2_000}
	if _, err := sim.Run(cfg, req.Bench, opts); err != nil {
		t.Fatal(err)
	}

	// A server opened over this journal recovers the run in the
	// background (resuming from the checkpoint, not from cycle 0).
	r := &experiments.Runner{Quota: 2_000, Seed: 1}
	s, ts := testServer(t, Options{Runner: r, Journal: dir})
	awaitRecovery(t, s)
	got, err := os.ReadFile(j.resultPath(key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered result differs from an uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
	// The recovered body is now a hit, served without another run.
	resp, served := postRun(t, ts, `{"schema_version":"respin/v1","config":"SH-STT","bench":"radix","quota":12000}`, nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(served, want) {
		t.Fatalf("re-POST of the recovered run: status %d, %d bytes (want %d identical)", resp.StatusCode, len(served), len(want))
	}
	if started := r.RunsStarted(); started != 1 {
		t.Fatalf("recovery started %d runs, want 1", started)
	}
}

// noSeed discards replayed results, for tests that open a journal only
// to fabricate its files.
func noSeed(string, []byte) {}

// awaitRecovery waits until the server's body store holds a recorded
// outcome: a background recovery finished and committed.
func awaitRecovery(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for s.bodies.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interrupted run was not recovered")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJournalSkipsDamagedResults: a result.json that fails the strict
// decode, or holds an outcome that is not recorded, is skipped on
// replay rather than served. A re-POST simulates once and returns the
// CLI bytes, which replace the damaged file.
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
			j, _, err := openJournal(dir, 0, noSeed)
			if err != nil {
				t.Fatal(err)
			}
			damaged := c.damage(bytes.Clone(want))
			if err := os.WriteFile(j.resultPath(key), damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			s, ts := testServer(t, Options{Journal: dir})
			if n := s.bodies.Len(); n != 0 {
				t.Fatalf("damaged result.json replayed into the store (%d entries)", n)
			}
			resp, got := postRun(t, ts, body, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("re-POST: status %d: %s", resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("re-POST body differs from CLI output (%d vs %d bytes)", len(got), len(want))
			}
			if started := metricsSnapshot(t, ts).Value("run.runs_started"); started != 1 {
				t.Fatalf("run.runs_started = %v, want 1", started)
			}
			if file, err := os.ReadFile(j.resultPath(key)); err != nil || !bytes.Equal(file, want) {
				t.Fatalf("result.json not replaced by the fresh result (err %v)", err)
			}
		})
	}
}

// TestJournalOldLayoutCheckpointRestartsFresh: a checkpoint left by an
// older snapshot layout at a pending request's .ckpt path is refused
// with ErrVersion, and both sim.RunOrResume and the journal recovery
// fall back to a fresh run that converges to the uninterrupted bytes.
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

	j, _, err := openJournal(dir, 0, noSeed)
	if err != nil {
		t.Fatal(err)
	}
	key := req.Key()
	if err := j.logRequest(key, req); err != nil {
		t.Fatal(err)
	}
	path := j.ckptPath(key)
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
	spec := sim.CheckpointSpec{Path: path, EveryCycles: j.every}
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
	// old file back and let a restarted server recover the request.
	writeOld()
	r := &experiments.Runner{Quota: 2_000, Seed: 1}
	s, err := New(Options{Runner: r, Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	awaitRecovery(t, s)
	got, err := os.ReadFile(j.resultPath(key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("committed result.json differs from an uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
	if started := r.RunsStarted(); started != 1 {
		t.Fatalf("recovery started %d runs, want 1", started)
	}
}

// TestWearOutRoundTripsThroughJournal: a wear-out is a recorded
// outcome; its StatusWearOut envelope must survive a restart and be
// served from the journal without re-running the simulation.
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
		t.Fatalf("replayed wear-out: status %d: %s", resp.StatusCode, second)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("replayed wear-out envelope differs from the original")
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
