package cli

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"respin/internal/config"
	"respin/internal/experiments"
	"respin/internal/sim"
)

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// newApp assembles a test App on a private flag set with the full
// group set unless narrower options are given.
func newApp(opts ...Option) (*App, *flag.FlagSet) {
	fs := newFlagSet()
	if len(opts) == 0 {
		opts = []Option{
			WithRunFlags(Defaults{}),
			WithParallelFlags(),
			WithProfileFlags(),
			WithTelemetryFlags(),
			WithFaultFlags(),
			WithEnduranceFlags(),
		}
	}
	return New("test", append([]Option{WithFlagSet(fs)}, opts...)...), fs
}

func TestNewDefaults(t *testing.T) {
	a, fs := newApp(WithRunFlags(Defaults{Quota: 123}), WithFaultFlags())
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if a.Quota != 123 || a.Seed != 1 {
		t.Fatalf("defaults: quota=%d seed=%d", a.Quota, a.Seed)
	}
	if a.Faults == nil || a.Faults.Seed != 1 || a.Faults.ECCName != "SECDED" {
		t.Fatalf("fault flags not registered: %+v", a.Faults)
	}
}

func TestNewRegistersOnlyRequestedGroups(t *testing.T) {
	a, fs := newApp(WithRunFlags(Defaults{Quota: 9}))
	for _, name := range []string{"jobs", "cpuprofile", "metrics", "fault-seed", "endurance-budget", "config"} {
		if fs.Lookup(name) != nil {
			t.Errorf("unrequested flag -%s registered", name)
		}
	}
	if fs.Lookup("seed") == nil || fs.Lookup("quota") == nil {
		t.Fatal("requested run flags missing")
	}
	if a.Faults != nil || a.Endurance != nil {
		t.Fatalf("unrequested groups populated: %+v", a.Common)
	}
}

func TestNewParsesSharedFlags(t *testing.T) {
	a, fs := newApp()
	args := []string{
		"-seed", "7", "-jobs", "2", "-quota", "555", "-q",
		"-cpuprofile", "cpu.out", "-memprofile", "mem.out",
		"-metrics", "m.json", "-events", "e.jsonl",
		"-stt-write-fail", "0.001", "-kill-cores", "2",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if a.Seed != 7 || a.Jobs != 2 || a.Quota != 555 || !a.Quiet {
		t.Fatalf("parsed common = %+v", a.Common)
	}
	if a.CPUProfile != "cpu.out" || a.MemProfile != "mem.out" ||
		a.Metrics != "m.json" || a.Events != "e.jsonl" {
		t.Fatalf("parsed outputs = %+v", a.Common)
	}
	if a.Faults.STTWriteFail != 0.001 || a.Faults.KillCores != 2 {
		t.Fatalf("parsed fault flags = %+v", a.Faults)
	}
}

// TestRequestMatchesFlags: the App's RunRequest is the normalized
// document the parsed flags denote — default fault/endurance groups
// normalize away, explicit injection survives.
func TestRequestMatchesFlags(t *testing.T) {
	a, fs := newApp(
		WithTarget(Target{ConfigName: "SH-STT", BenchName: "fft", ScaleName: "medium", Cluster: 16}, TAll),
		WithRunFlags(Defaults{Quota: sim.DefaultQuota}),
		WithParallelFlags(),
		WithFaultFlags(),
		WithEnduranceFlags(),
	)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	req, err := a.Request()
	if err != nil {
		t.Fatal(err)
	}
	if req.Config != "SH-STT" || req.Bench != "fft" || req.Quota != sim.DefaultQuota ||
		req.Seed != 1 || req.Workers != 0 {
		t.Fatalf("request = %+v", req)
	}
	if req.Faults != nil || req.Endurance != nil {
		t.Fatalf("default flag groups produced specs: %+v", req)
	}

	a2, fs2 := newApp(
		WithTarget(Target{ConfigName: "SH-STT", BenchName: "fft"}, TAll),
		WithRunFlags(Defaults{Quota: sim.DefaultQuota}),
		WithFaultFlags(),
	)
	if err := fs2.Parse([]string{"-stt-write-fail", "0.001", "-ecc", "dected"}); err != nil {
		t.Fatal(err)
	}
	req2, err := a2.Request()
	if err != nil {
		t.Fatal(err)
	}
	if req2.Faults == nil || req2.Faults.STTWriteFail != 0.001 || req2.Faults.ECC != "DECTED" {
		t.Fatalf("fault flags lost: %+v", req2.Faults)
	}

	bad, fs3 := newApp(WithTarget(Target{ConfigName: "nope", BenchName: "fft"}, TAll))
	if err := fs3.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Request(); err == nil || !strings.Contains(err.Error(), "SH-STT") {
		t.Fatalf("unknown config error does not list valid values: %v", err)
	}
}

func TestApplyToRunner(t *testing.T) {
	c := Common{Quota: 7_000, Seed: 3, Jobs: 2, Quiet: true,
		Faults: flagDefaults().Faults}
	r := &experiments.Runner{}
	if err := c.Apply(r); err != nil {
		t.Fatal(err)
	}
	if r.Quota != 7_000 || r.Seed != 3 || r.Jobs != 2 || r.FaultSeed != 1 {
		t.Fatalf("applied runner = %+v", r)
	}
	if r.Progress != nil {
		t.Fatal("quiet runner has progress output")
	}
	if r.TraceQuota == 0 {
		t.Fatal("Apply did not normalize the runner")
	}

	// Zero quota/seed mean "keep the runner's own values".
	keep := experiments.QuickRunner()
	z := Common{Faults: flagDefaults().Faults}
	if err := z.Apply(keep); err != nil {
		t.Fatal(err)
	}
	if keep.Quota != 40_000 || keep.Seed != 1 {
		t.Fatalf("zero flags overrode runner defaults: %+v", keep)
	}
}

// flagDefaults parses an empty command line to obtain the default
// Common (the fault flag group is only constructible via New).
func flagDefaults() Common {
	a, fs := newApp()
	_ = fs.Parse(nil)
	return a.Common
}

func TestApplyRejectsInvalid(t *testing.T) {
	c := flagDefaults()
	c.Jobs = -1
	if err := c.Apply(&experiments.Runner{}); err == nil {
		t.Fatal("negative jobs accepted")
	}
}

func TestStartWritesTelemetryOutputs(t *testing.T) {
	dir := t.TempDir()
	c := flagDefaults()
	c.Metrics = filepath.Join(dir, "m.json")
	c.Events = filepath.Join(dir, "e.jsonl")
	cleanup, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Collector().Enabled() {
		t.Fatal("Start did not build a collector")
	}
	c.Collector().RegisterCounter("x", func() uint64 { return 4 })
	c.Collector().Emit("run.start", 0, nil)
	if err := cleanup(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		SchemaVersion string `json:"schema_version"`
		Metrics       struct {
			Metrics []struct {
				Name  string  `json:"name"`
				Value float64 `json:"value"`
			} `json:"metrics"`
		} `json:"metrics"`
	}
	data, err := os.ReadFile(c.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != "respin/v1" {
		t.Fatalf("metrics document not versioned: %s", data)
	}
	m := doc.Metrics.Metrics
	if len(m) != 1 || m[0].Name != "x" || m[0].Value != 4 {
		t.Fatalf("metrics file = %s", data)
	}
	evdata, err := os.ReadFile(c.Events)
	if err != nil {
		t.Fatal(err)
	}
	if len(evdata) == 0 {
		t.Fatal("events file empty")
	}
}

func TestStartWithoutTelemetryIsNil(t *testing.T) {
	c := flagDefaults()
	cleanup, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	if c.Collector() != nil {
		t.Fatal("collector built with no -metrics/-events")
	}
	if err := cleanup(); err != nil {
		t.Fatal(err)
	}
}

func TestTargetResolution(t *testing.T) {
	a, fs := newApp(WithTarget(Target{ConfigName: "SH-STT", BenchName: "fft", ScaleName: "medium", Cluster: 16}, TAll))
	if err := fs.Parse([]string{"-config", "pr-stt-cc", "-scale", "LARGE", "-cluster", "8", "-bench", "lu"}); err != nil {
		t.Fatal(err)
	}
	cfg := resolve(t, a)
	if cfg.Kind != config.PRSTTCC || cfg.Scale != config.Large || cfg.ClusterSize != 8 {
		t.Fatalf("resolved config = %+v", cfg)
	}
	if a.Target.BenchName != "lu" {
		t.Fatalf("bench = %q", a.Target.BenchName)
	}

	for _, tc := range []struct {
		target Target
		want   string
	}{
		{Target{ConfigName: "nope", BenchName: "fft"}, "SH-STT"},
		{Target{ConfigName: "SH-STT", BenchName: "fft", ScaleName: "tiny"}, "small, medium, large"},
	} {
		bad, fs := newApp(WithTarget(tc.target, TAll))
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		if _, err := bad.Request(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%+v: error %v does not list the valid values", tc.target, err)
		}
	}

	// Partial registration declares only the requested flags.
	a2, fs2 := newApp(WithTarget(Target{ConfigName: "SH-STT-CC", BenchName: "radix"}, TConfig|TBench))
	if fs2.Lookup("scale") != nil || fs2.Lookup("cluster") != nil {
		t.Fatal("unrequested target flags registered")
	}
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	cfg2 := resolve(t, a2)
	if cfg2.Scale != config.Medium || cfg2.ClusterSize != config.New(config.SHSTTCC, config.Medium).ClusterSize {
		t.Fatalf("defaulted config = %+v", cfg2)
	}
}

// resolve resolves the configuration of the run a's flags denote.
func resolve(t *testing.T, a *App) config.Config {
	t.Helper()
	req, err := a.Request()
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestCheckpointSpecResumeIsAlias: -resume names the same spec as
// -checkpoint, for single-run tools and the runner's directory alike,
// and two different paths are refused.
func TestCheckpointSpecResumeIsAlias(t *testing.T) {
	// The runner creates its directory, so the paths live under the
	// test's temporary directory.
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.ckpt"), filepath.Join(dir, "b.ckpt")
	for _, tc := range []struct {
		args    []string
		want    sim.CheckpointSpec
		wantErr bool
	}{
		{nil, sim.CheckpointSpec{}, false},
		{[]string{"-checkpoint", a}, sim.CheckpointSpec{Path: a, EveryCycles: sim.DefaultCheckpointEvery}, false},
		{[]string{"-resume", a, "-checkpoint-every", "500"}, sim.CheckpointSpec{Path: a, EveryCycles: 500}, false},
		{[]string{"-checkpoint", a, "-resume", a}, sim.CheckpointSpec{Path: a, EveryCycles: sim.DefaultCheckpointEvery}, false},
		{[]string{"-checkpoint", a, "-resume", b}, sim.CheckpointSpec{}, true},
	} {
		a, fs := newApp(WithCheckpointFlags())
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		got, err := a.CheckpointSpec()
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("%v: got %+v, %v; want %+v (error %v)", tc.args, got, err, tc.want, tc.wantErr)
		}
		var r experiments.Runner
		err = a.Apply(&r)
		if (err != nil) != tc.wantErr || (err == nil && r.CheckpointDir != tc.want.Path) {
			t.Errorf("%v: runner checkpoint dir %q, %v; want %q", tc.args, r.CheckpointDir, err, tc.want.Path)
		}
	}
}
