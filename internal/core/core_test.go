// Package core holds end-to-end tests of the simulator's public
// composition: a Table IV configuration from config.New or
// config.NewWithCluster, a benchmark named by trace.Names, and one
// sim.Run over them — the path the examples take. It has no non-test
// code.
package core

import (
	"testing"

	"respin/internal/config"
	"respin/internal/sim"
	"respin/internal/trace"
)

func TestNewSystemDefaults(t *testing.T) {
	cfg := config.New(config.SHSTT, config.Medium)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Kind != config.SHSTT || cfg.Scale != config.Medium || cfg.ClusterSize != 16 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}

func TestNewSystemRejectsInvalid(t *testing.T) {
	if err := config.NewWithCluster(config.SHSTT, config.Medium, 7).Validate(); err == nil {
		t.Error("indivisible cluster size accepted")
	}
}

func TestBenchmarksAndConfigurations(t *testing.T) {
	if got := len(trace.Names()); got != 13 {
		t.Errorf("benchmarks = %d, want 13", got)
	}
	if got := len(config.AllArchKinds); got != 8 {
		t.Errorf("configurations = %d, want 8 (Table IV)", got)
	}
}

func TestRunEndToEnd(t *testing.T) {
	cfg := config.New(config.SHSTT, config.Medium)
	opts := sim.Options{QuotaInstr: 10_000}
	res, err := sim.Run(cfg, "swaptions", opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions < 64*10_000 || res.EnergyPJ <= 0 {
		t.Errorf("degenerate result: %d instr, %.1f pJ", res.Instructions, res.EnergyPJ)
	}
	if _, err := sim.Run(cfg, "nosuch", opts); err == nil {
		t.Error("unknown benchmark accepted")
	}
}
