// Package chaos is the kill-and-resume harness: it proves, against real
// processes, that the crash-safety stack (the run store's write-ahead
// requests, epoch-boundary checkpoints and atomic result commits, plus
// resume) converges to byte-identical results after a hard kill, for
// the service and for the batch tools alike.
//
// The harness builds cmd/respin-serve and cmd/respin-sweep. The serve
// phase plays two servers against each other:
//
//  1. Baseline: a server over a fresh journal runs the quick "fig9"
//     sweep uninterrupted; its response bytes are the ground truth.
//  2. Chaos: a second server over its own journal gets the same sweep,
//     is SIGKILLed at a randomized point mid-flight, is restarted over
//     the surviving journal, and is asked for the sweep again. The
//     restarted server must serve committed points from the journal,
//     resume interrupted ones from their checkpoints, and produce a
//     response byte-identical to the baseline.
//
// The batch phase SIGKILLs a `respin-sweep -checkpoint DIR` the same
// way; invoked again it must print the uninterrupted table and start no
// point committed before the kill, and a third time start nothing.
//
// The kill points are deliberately random (seeded, reported, and
// reproducible via Options.Seed): across runs they land before the
// first commit, between commits, and after the last one, so every
// recovery path gets exercised. cmd/respin-bench exposes the harness as
// `respin-bench -only chaos`; CI runs it as the chaos-smoke job.
package chaos

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"respin/internal/retry"
	"respin/internal/runstore"
)

// sweepBody is the workload both servers run: the quick Figure 9 sweep
// preset, the same fan-out the evaluation service ships.
const sweepBody = `{"schema_version":"respin/v1","preset":"fig9"}`

// Options configures a harness run.
type Options struct {
	// Progress receives the harness narration; nil discards it.
	Progress io.Writer
	// Dir is the scratch directory for the binaries, both journals and
	// the batch phase's run store; empty selects a temporary directory
	// removed when the harness returns.
	Dir string
	// Seed drives the randomized kill point; zero seeds from the clock.
	// The chosen seed is always reported, so a failing run can be
	// replayed.
	Seed int64
	// Binary is a prebuilt respin-serve to use; empty builds one from
	// the enclosing module.
	Binary string
}

func (o Options) progress() io.Writer {
	if o.Progress == nil {
		return io.Discard
	}
	return o.Progress
}

// Run executes the harness once. A nil return means the restarted
// server and the re-invoked sweep both converged to their uninterrupted
// baselines byte-for-byte.
func Run(ctx context.Context, o Options) error {
	p := o.progress()
	scratch := o.Dir
	if scratch == "" {
		dir, err := os.MkdirTemp("", "respin-chaos-*")
		if err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
		defer os.RemoveAll(dir)
		scratch = dir
	}
	bin := o.Binary
	if bin == "" {
		var err error
		if bin, err = build(ctx, scratch, "respin-serve"); err != nil {
			return err
		}
	}
	sweepBin, err := build(ctx, scratch, "respin-sweep")
	if err != nil {
		return err
	}
	seed := o.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	fmt.Fprintf(p, "chaos: kill-point seed %d (replay with -chaos-seed)\n", seed)

	baseline, err := runBaseline(ctx, p, bin, filepath.Join(scratch, "journal-a"))
	if err != nil {
		return err
	}
	fmt.Fprintf(p, "chaos: baseline sweep captured (%d bytes)\n", len(baseline))

	got, err := killAndResume(ctx, p, bin, filepath.Join(scratch, "journal-b"), rng)
	if err != nil {
		return err
	}
	if !bytes.Equal(baseline, got) {
		return fmt.Errorf("chaos: sweep after SIGKILL+restart differs from the uninterrupted baseline (%d vs %d bytes)",
			len(got), len(baseline))
	}
	fmt.Fprintf(p, "chaos: restarted server converged to the uninterrupted bytes (%d bytes)\n", len(got))
	return batchKillAndResume(ctx, p, sweepBin, scratch, rng)
}

// runBaseline captures the ground truth: the sweep response of a server
// that is never interrupted.
func runBaseline(ctx context.Context, p io.Writer, bin, journal string) ([]byte, error) {
	srv, err := startServer(ctx, p, "baseline", bin, journal)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	return postSweep(ctx, srv.url())
}

// killAndResume is the chaos act: sweep, SIGKILL at a random point,
// restart over the surviving journal, sweep again.
func killAndResume(ctx context.Context, p io.Writer, bin, journal string, rng *rand.Rand) ([]byte, error) {
	srv, err := startServer(ctx, p, "victim", bin, journal)
	if err != nil {
		return nil, err
	}
	defer srv.kill()

	// Fire the sweep; its response dies with the process, which is the
	// point — only the journal survives.
	go func() { _, _ = postSweep(ctx, srv.url()) }()

	delay, err := killAfterFirstEntry(ctx, journal, rng, 750*time.Millisecond, srv.kill)
	if err != nil {
		return nil, err
	}
	committed, pending := journalCounts(journal)
	fmt.Fprintf(p, "chaos: SIGKILL %v after first journal entry (%d committed, %d in flight)\n",
		delay.Round(time.Millisecond), committed, pending)

	// Restart over the same journal and re-request the sweep: committed
	// points come from disk, interrupted ones resume from checkpoints.
	srv2, err := startServer(ctx, p, "restarted", bin, journal)
	if err != nil {
		return nil, err
	}
	defer srv2.kill()
	return postSweep(ctx, srv2.url())
}

// server is one child process: a respin-serve, or the batch phase's
// respin-sweep victim (which has no address).
type server struct {
	cmd      *exec.Cmd
	addr     string
	done     chan error
	killOnce sync.Once
}

// startServer launches bin on an ephemeral port over the given journal
// directory, waits until it answers /v1/healthz, and reports it to p
// under role.
func startServer(ctx context.Context, p io.Writer, role, bin, journal string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-quick", "-journal", journal)
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("chaos: start %s: %w", bin, err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if addr, ok := parseListenAddr(sc.Text()); ok {
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case addr := <-addrCh:
		srv := &server{cmd: cmd, addr: addr, done: done}
		if err := srv.waitHealthy(ctx); err != nil {
			srv.kill()
			return nil, err
		}
		fmt.Fprintf(p, "chaos: %s server on %s\n", role, addr)
		return srv, nil
	case err := <-done:
		return nil, fmt.Errorf("chaos: server exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		return nil, errors.New("chaos: server never reported its address")
	case <-ctx.Done():
		cmd.Process.Kill()
		return nil, ctx.Err()
	}
}

// parseListenAddr extracts the resolved address from respin-serve's
// startup line.
func parseListenAddr(line string) (string, bool) {
	return strings.CutPrefix(strings.TrimSpace(line), "respin-serve: listening on ")
}

func (s *server) url() string { return "http://" + s.addr }

// kill SIGKILLs the server — no drain, no warning, the crash under
// test — and reaps it. Safe to call more than once (the deferred
// cleanup kill after an explicit mid-test kill must not block on the
// already-drained done channel).
func (s *server) kill() {
	s.killOnce.Do(func() {
		s.cmd.Process.Kill()
		<-s.done
	})
}

// waitHealthy polls /v1/healthz under a jittered backoff until the
// server answers.
func (s *server) waitHealthy(ctx context.Context) error {
	pol := retry.Policy{Attempts: 10, Base: 50 * time.Millisecond, Max: time.Second}
	return retry.Do(ctx, pol, func() error {
		resp, err := http.Get(s.url() + "/v1/healthz")
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("chaos: healthz status %d", resp.StatusCode)
		}
		return nil
	})
}

// postSweep posts the harness sweep and returns the raw response bytes
// (the byte-identity oracle, so no decoding).
func postSweep(ctx context.Context, base string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/sweep", strings.NewReader(sweepBody))
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("chaos: sweep: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("chaos: sweep: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("chaos: sweep status %d: %s", resp.StatusCode, data)
	}
	return data, nil
}

// waitForJournalEntry blocks until the run-store directory holds at
// least one entry — proof the process accepted work, so a kill lands
// mid-sweep rather than before it.
func waitForJournalEntry(ctx context.Context, dir string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		committed, pending := journalCounts(dir)
		if committed+pending > 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("chaos: sweep produced no journal entries")
		}
		select {
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// killAfterFirstEntry waits until the run store in dir shows accepted
// work, then for a random delay below within, so the kill lands at a
// different point every run, and calls kill. It returns the delay.
func killAfterFirstEntry(ctx context.Context, dir string, rng *rand.Rand, within time.Duration, kill func()) (time.Duration, error) {
	if err := waitForJournalEntry(ctx, dir); err != nil {
		return 0, err
	}
	delay := time.Duration(rng.Int63n(int64(within)))
	select {
	case <-time.After(delay):
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	kill()
	return delay, nil
}

// journalCounts reports how many committed results and in-flight
// requests the run-store directory holds right now.
func journalCounts(dir string) (committed, pending int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), runstore.ResultSuffix):
			committed++
		case strings.HasSuffix(e.Name(), runstore.RequestSuffix):
			pending++
		}
	}
	return committed, pending
}

// build compiles cmd/<name> from the enclosing module into scratch.
func build(ctx context.Context, scratch, name string) (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(scratch, name)
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("chaos: go build: %v\n%s", err, out)
	}
	return bin, nil
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", fmt.Errorf("chaos: %w", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("chaos: no go.mod above the working directory (run from inside the repository)")
		}
		dir = parent
	}
}
