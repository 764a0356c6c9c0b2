package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	v1 "respin/internal/api/v1"
	"respin/internal/config"
	"respin/internal/endurance"
	"respin/internal/faults"
	"respin/internal/sim"
	"respin/internal/telemetry"
)

// canaryFile holds, per sim.ModelVersion, the SHA-256 of each canary
// run's result JSON.
var canaryFile = filepath.Join("testdata", "model_canary.json")

// canary is one small run whose bytes stand for the model.
type canary struct {
	name  string
	cfg   config.Config
	bench string
	opts  sim.Options
}

// canaries is the canary set: the api/v1 golden request, and one run
// each through the retention model, the fault injector and greedy
// consolidation, at quotas that keep the whole set near a second.
func canaries(t *testing.T) []canary {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "api", "v1", "testdata", "run_result.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := v1.DecodeRunResult(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	cfg, opts, err := doc.Request.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return []canary{
		{"golden", cfg, doc.Request.Bench, opts},
		{"retention", config.New(config.PRSTTCC, config.Medium), "ocean", sim.Options{QuotaInstr: 3_000, Seed: 1,
			Endurance: endurance.Params{RetentionCycles: 3_000}}},
		{"faults", config.New(config.SHSTT, config.Medium), "radix", sim.Options{QuotaInstr: 3_000, Seed: 1,
			Faults: faults.Params{Seed: 2, STTWriteFailProb: 1e-3, Kills: faults.KillFirstN(4, 2, 2_000)}}},
		{"consolidation", config.New(config.SHSTTCC, config.Medium), "radix", sim.Options{QuotaInstr: 6_000, Seed: 1,
			EpochTrace: true}},
	}
}

// TestModelVersionCanary guards sim.ModelVersion: it hashes the result
// JSON, metrics included, of every canary run and compares each digest
// with the ones recorded for the current version. A digest that moves
// under the same version means a change moved simulated bytes without
// bumping the version, so stored results and checkpoints of the old
// model would be taken for the new one's. After a bump, record the new
// version's digests with UPDATE_GOLDEN=1; recorded digests are never
// rewritten.
func TestModelVersionCanary(t *testing.T) {
	got := make(map[string]string)
	for _, c := range canaries(t) {
		opts := c.opts
		opts.Telemetry = telemetry.New()
		res, err := sim.Run(c.cfg, c.bench, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(data)
		got[c.name] = hex.EncodeToString(sum[:])
	}

	recorded := make(map[string]map[string]string)
	if data, err := os.ReadFile(canaryFile); err == nil {
		if err := json.Unmarshal(data, &recorded); err != nil {
			t.Fatal(err)
		}
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	version := strconv.Itoa(sim.ModelVersion)
	want, ok := recorded[version]
	if !ok {
		if os.Getenv("UPDATE_GOLDEN") == "" {
			t.Fatalf("no canary digests recorded for model version %s: record them with UPDATE_GOLDEN=1", version)
		}
		recorded[version] = got
		data, err := json.MarshalIndent(recorded, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(canaryFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("canary %s: digest %s, recorded %s for model version %s: simulation bytes changed: bump sim.ModelVersion",
				name, sum, want[name], version)
		}
	}
	if len(want) != len(got) {
		t.Errorf("model version %s records %d canaries, the set has %d", version, len(want), len(got))
	}
}
