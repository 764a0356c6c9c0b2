package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"respin/internal/checkpoint"
	"respin/internal/config"
	"respin/internal/endurance"
	"respin/internal/faults"
	"respin/internal/telemetry"
)

// telRun executes one run through RunOrResume with an events-attached
// collector and the given checkpoint spec (zero for none), and returns
// the Result with the raw JSONL event stream. Over a path that holds a
// checkpoint of this run it resumes; otherwise it starts at cycle 0.
func telRun(t *testing.T, cfg config.Config, bench string, optsFn func() Options, spec CheckpointSpec) (Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	opts := optsFn()
	opts.Telemetry = telemetry.New(telemetry.WithEvents(&buf))
	r, err := RunOrResume(context.Background(), cfg, bench, opts, spec)
	if err != nil {
		t.Fatalf("run %v/%s: %v", cfg.Kind, bench, err)
	}
	return r, buf.Bytes()
}

// eventsAfter returns the suffix of a JSONL event stream starting at
// the seq-th event (one event per line).
func eventsAfter(t *testing.T, evs []byte, seq uint64) []byte {
	t.Helper()
	rest := evs
	for i := uint64(0); i < seq; i++ {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			t.Fatalf("event stream has fewer than %d events", seq)
		}
		rest = rest[nl+1:]
	}
	return rest
}

// mustJSON marshals a Result for byte-exact comparison.
func mustJSON(t *testing.T, r Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return b
}

// checkResumeIdentity runs the full contract for one configuration:
//
//  1. an uninterrupted run and a checkpointing run produce identical
//     results and event streams (snapshotting never perturbs a run);
//  2. resuming from the mid-run checkpoint produces a byte-identical
//     Result JSON; and
//  3. the resumed event stream byte-equals the uninterrupted stream's
//     suffix from the checkpoint's sequence number, so the journal
//     prefix plus the resumed stream reproduce the whole run.
func checkResumeIdentity(t *testing.T, cfg config.Config, bench string, optsFn func() Options, ckptAt uint64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")

	spec := CheckpointSpec{Path: path, AtCycle: ckptAt}
	full, fullEvs := telRun(t, cfg, bench, optsFn, CheckpointSpec{})
	ckpt, ckptEvs := telRun(t, cfg, bench, optsFn, spec)
	if !reflect.DeepEqual(full, ckpt) || !bytes.Equal(fullEvs, ckptEvs) {
		t.Fatal("arming a checkpoint perturbed the run")
	}

	info, err := CheckpointInfo(path)
	if err != nil {
		t.Fatalf("checkpoint info: %v", err)
	}
	if info.Cycle < ckptAt || info.Cycle >= full.Cycles {
		t.Fatalf("checkpoint at cycle %d outside (%d, %d)", info.Cycle, ckptAt, full.Cycles)
	}
	if info.Bench != bench || info.Config.Kind != cfg.Kind {
		t.Fatalf("checkpoint identity %s/%v, want %s/%v", info.Bench, info.Config.Kind, bench, cfg.Kind)
	}

	res, resEvs := telRun(t, cfg, bench, optsFn, spec)
	if fj, rj := mustJSON(t, full), mustJSON(t, res); !bytes.Equal(fj, rj) {
		t.Fatalf("resumed Result JSON diverged from uninterrupted run\nfull:    %s\nresumed: %s", fj, rj)
	}
	if !reflect.DeepEqual(full, res) {
		t.Fatalf("resumed Result diverged from uninterrupted run\nfull:    %+v\nresumed: %+v", full, res)
	}
	want := eventsAfter(t, fullEvs, info.TelemetrySeq)
	if !bytes.Equal(want, resEvs) {
		t.Fatalf("resumed event stream diverged from uninterrupted suffix (seq %d):\nwant %d bytes\ngot  %d bytes",
			info.TelemetrySeq, len(want), len(resEvs))
	}
}

// TestCheckpointResumeIdentity is the contract behind RunOrResume:
// checkpointing mid-run and resuming must be bit-identical to the
// uninterrupted run — same Result JSON, same telemetry event stream —
// on every Table IV configuration and on the paths with extra state to
// carry across the checkpoint.
func TestCheckpointResumeIdentity(t *testing.T) {
	t.Parallel()
	for _, kind := range config.AllArchKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := config.New(kind, config.Medium)
			mk := func() Options {
				return Options{QuotaInstr: 12_000, Seed: 1, EpochTrace: true}
			}
			checkResumeIdentity(t, cfg, "fft", mk, 2_000)
		})
	}

	cases := []struct {
		name   string
		kind   config.ArchKind
		bench  string
		ckptAt uint64
		optsFn func() Options
	}{
		// The injector's RNG streams and retry counters cross the
		// checkpoint.
		{"stt-write-fail", config.SHSTT, "radix", 2_000, func() Options {
			return Options{QuotaInstr: 12_000, Seed: 1,
				Faults: faults.Params{Seed: 1, STTWriteFailProb: 1e-3}}
		}},
		// Checkpoint before the scheduled kills: the undelivered kill
		// schedule must survive the round trip.
		{"core-kills-before", config.SHSTTCC, "radix", 2_000, func() Options {
			return Options{QuotaInstr: 12_000, Seed: 1, EpochTrace: true,
				Faults: faults.Params{Seed: 1, Kills: faults.KillFirstN(4, 2, 5_000)}}
		}},
		// Checkpoint after the kills: dead cores and kill counters must
		// survive it.
		{"core-kills-after", config.SHSTTCC, "radix", 8_000, func() Options {
			return Options{QuotaInstr: 12_000, Seed: 1, EpochTrace: true,
				Faults: faults.Params{Seed: 1, Kills: faults.KillFirstN(4, 2, 5_000)}}
		}},
		// SRAM read upsets draw per-access randomness on a private-L1
		// config with a coherence directory.
		{"sram-flips-ecc", config.PRSRAMNT, "fft", 2_000, func() Options {
			return Options{QuotaInstr: 12_000, Seed: 1,
				Faults: faults.Params{Seed: 3, SRAMBitFlipPerCell: 1e-4}}
		}},
		// The cycle-exact slow path: one-cycle epochs, no skips.
		{"no-fast-forward", config.SHSTTCC, "radix", 2_000, func() Options {
			return Options{QuotaInstr: 12_000, Seed: 1, DisableFastForward: true}
		}},
		// Wear, retirement, scrub deadlines and wear-leveling rotation
		// state all cross the checkpoint.
		{"endurance", config.SHSTT, "radix", 2_000, func() Options {
			return Options{QuotaInstr: 12_000, Seed: 1, Endurance: endurance.Params{
				Seed: 9, BudgetMean: 50_000, BudgetSigma: 0.4,
				RetentionCycles: 50_000, WearLevel: true,
			}}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := config.New(tc.kind, config.Medium)
			checkResumeIdentity(t, cfg, tc.bench, tc.optsFn, tc.ckptAt)
		})
	}
}

// TestCheckpointPeriodic exercises EveryCycles: the file is rewritten
// at successive boundaries and the last one still resumes to an
// identical result.
func TestCheckpointPeriodic(t *testing.T) {
	t.Parallel()
	cfg := config.New(config.SHSTT, config.Medium)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	mk := func() Options {
		return Options{QuotaInstr: 12_000, Seed: 1, EpochTrace: true}
	}
	full, fullEvs := telRun(t, cfg, "fft", mk, CheckpointSpec{})
	spec := CheckpointSpec{Path: path, EveryCycles: 3_000}
	telRun(t, cfg, "fft", mk, spec)

	info, err := CheckpointInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Cycle < 3_000 {
		t.Fatalf("last periodic checkpoint at %d, want >= 3000", info.Cycle)
	}
	res, resEvs := telRun(t, cfg, "fft", mk, spec)
	if !reflect.DeepEqual(full, res) {
		t.Fatalf("periodic resume diverged:\nfull:    %+v\nresumed: %+v", full, res)
	}
	if want := eventsAfter(t, fullEvs, info.TelemetrySeq); !bytes.Equal(want, resEvs) {
		t.Fatal("periodic resume event stream diverged")
	}
}

// TestRunOrResumeMatchesWholeRun: a checkpoint resumes only the run it
// holds. Over run A's mid-run checkpoint, every run B whose definition
// differs from A's — in its options, its faults, its epoch trace, or a
// configuration field beyond kind, scale and cluster size — starts at
// cycle 0 and equals a fresh B byte for byte, result and event stream.
// With B = A the call resumes: no run.start event, and the result of
// the uninterrupted run.
func TestRunOrResumeMatchesWholeRun(t *testing.T) {
	t.Parallel()
	cfgA := config.New(config.SHSTT, config.Medium)
	optsA := func() Options {
		return Options{QuotaInstr: 15_000, Seed: 1, Endurance: endurance.Params{BudgetMean: 3_000}}
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	spec := CheckpointSpec{Path: path, AtCycle: 40_000}
	fullA, evsA := telRun(t, cfgA, "radix", optsA, spec)
	if !bytes.Contains(evsA, []byte(`"run.start"`)) {
		t.Fatal("a fresh run emitted no run.start event")
	}
	ckptA, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cfgB := cfgA
	cfgB.ConsolidationParams.EPIThreshold *= 2
	for _, tc := range []struct {
		name   string
		cfg    config.Config
		optsFn func() Options
	}{
		{"no-options", cfgA, func() Options { return Options{QuotaInstr: 15_000, Seed: 1} }},
		{"stt-write-faults", cfgA, func() Options {
			return Options{QuotaInstr: 15_000, Seed: 1, Faults: faults.Params{STTWriteFailProb: 0.01}}
		}},
		{"epoch-trace", cfgA, func() Options {
			o := optsA()
			o.EpochTrace = true
			return o
		}},
		{"consolidation-params", cfgB, optsA},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh, freshEvs := telRun(t, tc.cfg, "radix", tc.optsFn, CheckpointSpec{})
			if err := os.WriteFile(path, ckptA, 0o644); err != nil {
				t.Fatal(err)
			}
			got, gotEvs := telRun(t, tc.cfg, "radix", tc.optsFn, spec)
			if fj, gj := mustJSON(t, fresh), mustJSON(t, got); !bytes.Equal(fj, gj) {
				t.Fatalf("run over another run's checkpoint differs from a fresh run\nfresh: %s\ngot:   %s", fj, gj)
			}
			if !bytes.Equal(freshEvs, gotEvs) {
				t.Fatal("run over another run's checkpoint emitted a different event stream than a fresh run")
			}
		})
	}

	t.Run("same-run", func(t *testing.T) {
		if err := os.WriteFile(path, ckptA, 0o644); err != nil {
			t.Fatal(err)
		}
		got, evs := telRun(t, cfgA, "radix", optsA, spec)
		if fj, gj := mustJSON(t, fullA), mustJSON(t, got); !bytes.Equal(fj, gj) {
			t.Fatalf("resumed run differs from the uninterrupted run\nfull: %s\ngot:  %s", fj, gj)
		}
		if bytes.Contains(evs, []byte(`"run.start"`)) {
			t.Fatal("the same run started at cycle 0 instead of resuming")
		}
	})
}

// TestCheckpointOfAnotherModelRestarts: a checkpoint that differs from
// a resumable one only in its model version — 0 is what files written
// before the version existed decode as — is not resumed. The run starts
// at cycle 0, emits run.start, and equals a fresh run byte for byte,
// result and event stream.
func TestCheckpointOfAnotherModelRestarts(t *testing.T) {
	t.Parallel()
	cfg := config.New(config.SHSTT, config.Medium)
	mk := func() Options { return Options{QuotaInstr: 12_000, Seed: 1} }
	path := filepath.Join(t.TempDir(), "run.ckpt")
	spec := CheckpointSpec{Path: path, AtCycle: 2_000}
	fresh, freshEvs := telRun(t, cfg, "fft", mk, CheckpointSpec{})
	telRun(t, cfg, "fft", mk, spec)
	st, err := loadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.info().Holds(cfg, "fft", mk()) {
		t.Fatal("test setup: the checkpoint does not hold its own run")
	}
	for _, model := range []int{0, ModelVersion + 1} {
		st.Model = model
		if err := checkpoint.Save(path, SnapshotVersion, st); err != nil {
			t.Fatal(err)
		}
		got, evs := telRun(t, cfg, "fft", mk, spec)
		if !bytes.Contains(evs, []byte(`"run.start"`)) {
			t.Fatalf("model %d: the run resumed another model's checkpoint", model)
		}
		if fj, gj := mustJSON(t, fresh), mustJSON(t, got); !bytes.Equal(fj, gj) {
			t.Fatalf("model %d: result differs from a fresh run\nfresh: %s\ngot:   %s", model, fj, gj)
		}
		if !bytes.Equal(freshEvs, evs) {
			t.Fatalf("model %d: event stream differs from a fresh run", model)
		}
	}
}
