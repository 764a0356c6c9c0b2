package sim_test

import (
	"math"
	"runtime"
	"testing"

	"respin/internal/config"
	"respin/internal/sim"
)

// TestNewAllocatesLittle pins what building a medium SH-STT chip costs
// the host: the cache arrays allocate no per-way columns up front, so
// sim.New allocates at most 3 MB (the least of three builds, so a stray
// allocation elsewhere in the process in one build does not count),
// against the 15 MB a flat 10-byte-per-way layout of the chip's 1.5M
// ways allocated.
func TestNewAllocatesLittle(t *testing.T) {
	const limit = 3 << 20
	cfg := config.New(config.SHSTT, config.Medium)
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, err := sim.New(cfg, "fft", sim.Options{QuotaInstr: 100_000, Seed: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(s)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("sim.New allocated %.2f MB", float64(least)/(1<<20))
	if least > limit {
		t.Errorf("sim.New allocated %d bytes, limit %d", least, limit)
	}
}
