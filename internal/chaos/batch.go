package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	v1 "respin/internal/api/v1"
)

// batchKillAndResume is the batch chaos act. It captures an
// uninterrupted sweep, SIGKILLs one that keeps a run store at a random
// point, and invokes it twice more over the surviving store: the first
// must print the baseline table and start no point committed before the
// kill, the second must start nothing.
func batchKillAndResume(ctx context.Context, p io.Writer, bin, scratch string, rng *rand.Rand) error {
	store := filepath.Join(scratch, "batch-store")
	metrics := filepath.Join(scratch, "batch-metrics.json")
	baseline, points, err := sweepOnce(ctx, bin, "", metrics)
	if err != nil {
		return err
	}
	fmt.Fprintf(p, "chaos: baseline batch sweep captured (%d points, %d bytes)\n", points, len(baseline))

	cmd := sweepCmd(ctx, bin, store, metrics)
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("chaos: start %s: %w", bin, err)
	}
	victim := &server{cmd: cmd, done: make(chan error, 1)}
	go func() { victim.done <- cmd.Wait() }()
	defer victim.kill()
	delay, err := killAfterFirstEntry(ctx, store, rng, 1500*time.Millisecond, victim.kill)
	if err != nil {
		return err
	}
	committed, pending := journalCounts(store)
	fmt.Fprintf(p, "chaos: SIGKILL respin-sweep %v after its first store entry (%d committed, %d in flight)\n",
		delay.Round(time.Millisecond), committed, pending)

	for i, most := range []int{points - committed, 0} {
		got, started, err := sweepOnce(ctx, bin, store, metrics)
		switch {
		case err != nil:
			return err
		case !bytes.Equal(got, baseline):
			return fmt.Errorf("chaos: re-invoked sweep %d printed another table than the uninterrupted baseline", i+1)
		case started > most:
			return fmt.Errorf("chaos: re-invoked sweep %d started %d runs, want at most %d (the points without a committed result)",
				i+1, started, most)
		}
		fmt.Fprintf(p, "chaos: re-invoked sweep %d matched the baseline, starting %d runs (at most %d)\n", i+1, started, most)
	}
	return nil
}

// sweepCmd is one respin-sweep invocation of the batch workload: the
// six-point cache-scale sweep at a quota that keeps it near a second,
// over the run store in store ("" for none). Every invocation attaches
// a metrics collector, so all of them share one store key per point.
func sweepCmd(ctx context.Context, bin, store, metrics string) *exec.Cmd {
	args := []string{"-sweep", "scale", "-quota", "20000", "-q", "-metrics", metrics}
	if store != "" {
		args = append(args, "-checkpoint", store, "-checkpoint-every", "20000")
	}
	return exec.CommandContext(ctx, bin, args...)
}

// sweepOnce runs one sweepCmd to completion and returns its stdout and
// how many runs it started (runner.runs_started in its metrics).
func sweepOnce(ctx context.Context, bin, store, metrics string) ([]byte, int, error) {
	cmd := sweepCmd(ctx, bin, store, metrics)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("chaos: %v: %v\n%s", cmd.Args, err, stderr.Bytes())
	}
	var doc v1.MetricsDoc
	data, err := os.ReadFile(metrics)
	if err == nil {
		err = json.Unmarshal(data, &doc)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("chaos: %s: %w", metrics, err)
	}
	return stdout.Bytes(), int(doc.Metrics.Value("runner.runs_started")), nil
}
