package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	v1 "respin/internal/api/v1"
	"respin/internal/cli"
	"respin/internal/config"
	"respin/internal/runstore"
	"respin/internal/sim"
	"respin/internal/telemetry"
)

// TestFailedPointsReportedAfterCleanup: a sweep whose SRAM points halt
// on an uncorrectable error still runs every other point, names each
// failed point on stderr in sweep order, exits 1, and leaves run's
// deferred cleanup done — a valid -metrics document and a flushed
// -cpuprofile.
func TestFailedPointsReportedAfterCleanup(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	cpu := filepath.Join(dir, "c.prof")
	fs := flag.NewFlagSet("respin-sweep", flag.ContinueOnError)
	var stdout, stderr bytes.Buffer
	code := run(fs, []string{
		"-sweep", "scale", "-quota", "2000",
		"-sram-bitflip", "0.001", "-ecc", "parity", "-halt-uncorrectable",
		"-metrics", metrics, "-cpuprofile", cpu,
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, &stderr)
	}
	if stdout.Len() != 0 {
		t.Errorf("a failed sweep printed a table:\n%s", &stdout)
	}
	msg := stderr.String()
	var last int
	for _, point := range []string{"point 0 (PR-SRAM-NT.small)", "point 2 (PR-SRAM-NT.medium)", "point 4 (PR-SRAM-NT.large)"} {
		i := strings.Index(msg, point)
		if i < last {
			t.Fatalf("stderr does not name %q after the previous failure:\n%s", point, msg)
		}
		last = i
	}
	if strings.Contains(msg, "(SH-STT.") {
		t.Errorf("an STT point reported a failure:\n%s", msg)
	}

	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatalf("-metrics is not valid JSON:\n%s", data)
	}
	if !bytes.Contains(data, []byte("run.SH-STT.small.")) {
		t.Error("-metrics lacks the telemetry of a point that completed")
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Fatalf("-cpuprofile not flushed: %v, %v", fi, err)
	}
}

// sweep runs respin-sweep with args and returns its exit status, stdout
// and stderr.
func sweep(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	fs := flag.NewFlagSet("respin-sweep", flag.ContinueOnError)
	var stdout, stderr bytes.Buffer
	code := run(fs, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestOutputIndependentOfJobs: every sweep prints the same table and
// writes the same -metrics bytes at -jobs 1 and -jobs 4, whatever order
// the points complete in.
func TestOutputIndependentOfJobs(t *testing.T) {
	for _, name := range []string{"cluster", "epoch", "scale"} {
		t.Run(name, func(t *testing.T) {
			out := func(jobs string) (string, []byte) {
				metrics := filepath.Join(t.TempDir(), "m.json")
				code, stdout, stderr := sweep(t, "-sweep", name, "-quota", "2000", "-q",
					"-jobs", jobs, "-metrics", metrics)
				if code != 0 {
					t.Fatalf("-jobs %s: exit %d; stderr:\n%s", jobs, code, stderr)
				}
				data, err := os.ReadFile(metrics)
				if err != nil {
					t.Fatal(err)
				}
				return stdout, data
			}
			serial, serialMetrics := out("1")
			parallel, parallelMetrics := out("4")
			if serial != parallel {
				t.Errorf("table differs between -jobs 1 and 4:\n--- 1\n%s--- 4\n%s", serial, parallel)
			}
			if !bytes.Equal(serialMetrics, parallelMetrics) {
				t.Error("-metrics differs between -jobs 1 and 4")
			}
		})
	}
}

// TestCheckpointFilesFollowOutcomes: with -checkpoint, a point whose
// outcome is recorded leaves its committed result and no checkpoint,
// and a failed point keeps its checkpoint, so a re-invoked sweep starts
// exactly the failed points and recalls the rest. Telemetry is not part
// of the store key: the first invocation runs without -metrics, the
// second with it, and a recalled point's metrics equal those of a sweep
// that keeps no store.
func TestCheckpointFilesFollowOutcomes(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(t.TempDir(), "m.json")
	args := []string{"-sweep", "scale", "-quota", "2000", "-q",
		"-sram-bitflip", "0.00001", "-ecc", "parity", "-halt-uncorrectable"}
	stored := append(args[:len(args):len(args)], "-checkpoint", dir, "-checkpoint-every", "500")
	code, _, stderr := sweep(t, stored...)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var results int
	var failed []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, runstore.ResultSuffix):
			results++
		case strings.HasSuffix(name, runstore.CheckpointSuffix):
			info, err := sim.CheckpointInfo(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			failed = append(failed, fmt.Sprintf("%v.%v", info.Config.Kind, info.Config.Scale))
		}
	}
	sort.Strings(failed)
	want := []string{"PR-SRAM-NT.large", "PR-SRAM-NT.medium", "PR-SRAM-NT.small"}
	if results != 3 || strings.Join(failed, " ") != strings.Join(want, " ") {
		t.Fatalf("store holds %d results and checkpoints of %v; want the 3 STT points' results and the failed points' checkpoints %v",
			results, failed, want)
	}

	if code, _, stderr := sweep(t, append(stored, "-metrics", metrics)...); code != 1 {
		t.Fatalf("second invocation: exit %d, want 1; stderr:\n%s", code, stderr)
	}
	second := readMetrics(t, metrics)
	if started, hits := second.Value("runner.runs_started"), second.Value("runner.cache_hits"); started != 3 || hits != 3 {
		t.Fatalf("second invocation started %v runs with %v cache hits, want the 3 failed points started and 3 recalled", started, hits)
	}

	unstored := filepath.Join(t.TempDir(), "m.json")
	if code, _, stderr := sweep(t, append(args, "-metrics", unstored)...); code != 1 {
		t.Fatalf("sweep without a store: exit %d, want 1; stderr:\n%s", code, stderr)
	}
	fresh := readMetrics(t, unstored)
	var recalled int
	for _, m := range fresh.Metrics {
		if !strings.HasPrefix(m.Name, "run.SH-STT.") {
			continue
		}
		recalled++
		if got, ok := second.Get(m.Name); !ok || !reflect.DeepEqual(got, m) {
			t.Fatalf("recalled metric %s = %+v, want %+v as a sweep without a store reports it", m.Name, got, m)
		}
	}
	if recalled == 0 {
		t.Fatal("the sweep reports no metrics of the STT points")
	}
}

// TestZeroRateFaultFlagsRecallStoredRuns: fault flags that inject
// nothing are not part of a run's definition, so a sweep re-invoked
// over its store with another fault seed and ECC scheme, but no fault
// rate, recalls every point and prints the same table.
func TestZeroRateFaultFlagsRecallStoredRuns(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-sweep", "scale", "-quota", "2000", "-q", "-checkpoint", dir}
	invoke := func(extra ...string) (string, float64) {
		t.Helper()
		metrics := filepath.Join(t.TempDir(), "m.json")
		code, stdout, stderr := sweep(t, append(append(args[:len(args):len(args)], extra...), "-metrics", metrics)...)
		if code != 0 {
			t.Fatalf("%v: exit %d; stderr:\n%s", extra, code, stderr)
		}
		return stdout, readMetrics(t, metrics).Value("runner.runs_started")
	}
	first, started := invoke()
	if started != 6 {
		t.Fatalf("first invocation started %v runs, want 6", started)
	}
	second, started := invoke("-fault-seed", "2", "-ecc", "DECTED")
	if started != 0 {
		t.Fatalf("-fault-seed 2 -ecc DECTED without a fault rate started %v runs, want 0", started)
	}
	if second != first {
		t.Fatalf("the recalled table differs:\n--- first\n%s--- second\n%s", first, second)
	}
}

// TestClusterSweepKillsEveryCluster: -kill-cores lays its kills out on
// each point's own configuration, so every point of the cluster sweep
// runs and loses one core in each of its clusters: 16 at four cores per
// cluster, 2 at thirty-two.
func TestClusterSweepKillsEveryCluster(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.json")
	code, _, stderr := sweep(t, "-sweep", "cluster", "-kill-cores", "1", "-quota", "2000", "-q", "-metrics", metrics)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	snap := readMetrics(t, metrics)
	points := map[string]config.Config{"PR-SRAM-NT": config.New(config.PRSRAMNT, config.Medium)}
	for _, cs := range []int{4, 8, 16, 32} {
		points[fmt.Sprintf("SH-STT.cl%d", cs)] = config.NewWithCluster(config.SHSTT, config.Medium, cs)
	}
	for label, cfg := range points {
		name := "run." + label + ".faults.core_kills"
		if got, want := snap.Value(name), float64(cfg.NumClusters()); got != want {
			t.Errorf("%s = %v, want one kill in each of %v clusters", name, got, want)
		}
	}
	if got := snap.Value("run.SH-STT.cl4.faults.core_kills"); got != 16 {
		t.Errorf("the cl4 point killed %v cores, want 16", got)
	}
}

// TestSweepPointIsTheSingleRun: the sweep's SH-STT medium point is the
// run respin-sim defines from the same flags (App.Request, then
// Resolve): its committed store entry is the one under that run's
// sim.RunKey. Without an injected fault the endurance model takes seed
// 1 whatever -fault-seed says; with one it takes the fault seed.
func TestSweepPointIsTheSingleRun(t *testing.T) {
	for _, flags := range [][]string{
		{"-quota", "3000", "-fault-seed", "7", "-endurance-budget", "1e5"},
		{"-quota", "3000", "-fault-seed", "7", "-endurance-budget", "1e5", "-stt-write-fail", "0.01", "-kill-cores", "1"},
	} {
		dir := t.TempDir()
		args := append([]string{"-sweep", "scale", "-q", "-checkpoint", dir}, flags...)
		if code, _, stderr := sweep(t, args...); code != 0 {
			t.Fatalf("%v: exit %d; stderr:\n%s", flags, code, stderr)
		}

		fs := flag.NewFlagSet("respin-sim", flag.ContinueOnError)
		app := cli.New("respin-sim",
			v1.RunRequest{Config: "SH-STT", Bench: "fft", Scale: "medium", Cluster: 16, Quota: sim.DefaultQuota, Seed: 1},
			cli.WithFlagSet(fs), cli.WithTarget(cli.TAll), cli.WithRunFlags(),
			cli.WithFaultFlags(), cli.WithEnduranceFlags())
		if err := fs.Parse(flags); err != nil {
			t.Fatal(err)
		}
		req, err := app.Request()
		if err != nil {
			t.Fatal(err)
		}
		cfg, opts, err := req.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		key, err := sim.RunKey(cfg, req.Bench, opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := runstore.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Result(key); err != nil {
			t.Errorf("%v: the store holds no entry under respin-sim's run key: %v", flags, err)
		}
	}
}

// readMetrics reads the metric snapshot of a -metrics document.
func readMetrics(t *testing.T, path string) *telemetry.Snapshot {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics telemetry.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return &doc.Metrics
}
