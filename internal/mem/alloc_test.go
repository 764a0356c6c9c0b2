package mem

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"respin/internal/config"
	"respin/internal/endurance"
)

// TestAccessAndFillAllocFree locks in the data-oriented cache layout:
// once built, the steady-state tag-array operations (hit, miss, fill
// with eviction) must not touch the heap at all.
func TestAccessAndFillAllocFree(t *testing.T) {
	for _, p := range []config.CacheParams{pow2Params(), npow2Params()} {
		c := NewCache(p)
		const blocks = 4096
		for i := uint64(0); i < blocks; i++ {
			c.Fill(i<<c.blockShift, i%3 == 0)
		}
		var i uint64
		if n := testing.AllocsPerRun(1000, func() {
			i++
			c.Access(i%blocks<<c.blockShift, i%4 == 0) // resident: hits
			c.Access((blocks+i)<<c.blockShift, false)  // absent: misses
			c.Fill((blocks+i)<<c.blockShift, i%2 == 0) // evicting fills
			c.Invalidate((blocks + i) << c.blockShift)
		}); n != 0 {
			t.Errorf("sets=%d: %v allocs per steady-state access batch, want 0", p.Sets(), n)
		}
	}
}

// tableIGeometries lists every distinct cache geometry of Table I: the
// private and shared L1s at every evaluated cluster size, and the L2
// and L3 at every scale.
func tableIGeometries() []config.CacheParams {
	var ps []config.CacheParams
	for _, scale := range config.AllScales {
		for _, org := range []config.L1Org{config.PrivateL1, config.SharedL1} {
			for _, cl := range []int{4, 8, 16, 32} {
				h := config.NewHierarchy(scale, org, cl)
				for _, p := range []config.CacheParams{h.L1I, h.L1D, h.L2, h.L3} {
					if !slices.Contains(ps, p) {
						ps = append(ps, p)
					}
				}
			}
		}
	}
	return ps
}

// allocBytes returns the heap bytes fn allocates: the least of three
// calls, so a stray allocation elsewhere in the process (the test
// framework, the runtime) in one call does not count.
func allocBytes(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestCacheBytesPerWay pins the array's host footprint: for every
// Table I geometry, NewCache allocates at most 10 bytes per way (tag 8,
// state 1, LRU rank 1) plus the touched-way bitmap and the Cache header,
// and attaching an endurance model with retention adds exactly the
// 8-byte write-stamp column; one without retention adds nothing.
func TestCacheBytesPerWay(t *testing.T) {
	const header = 512 // the Cache struct, rounded up to its size class
	for _, p := range tableIGeometries() {
		ways := p.Sets() * p.Assoc
		var c *Cache
		got := allocBytes(func() { c = NewCache(p) })
		limit := uint64(10*ways + 8*((ways+63)/64) + header)
		if got > limit {
			t.Errorf("%d B/%d-way: NewCache allocated %d bytes for %d ways (%.2f per way), limit %d",
				p.SizeBytes, p.Assoc, got, ways, float64(got)/float64(ways), limit)
		}
		tr := endurance.NewTracker(endurance.Params{Seed: 1, BudgetMean: 1e9})
		plain := tr.NewArray("plain", 0, p.Sets(), p.Assoc)
		if got := allocBytes(func() { c.AttachEndurance(plain) }); got != 0 {
			t.Errorf("%d B/%d-way: attaching endurance without retention allocated %d bytes", p.SizeBytes, p.Assoc, got)
		}
		tr = endurance.NewTracker(endurance.Params{Seed: 1, BudgetMean: 1e9, RetentionCycles: 1000})
		ret := tr.NewArray("retention", 0, p.Sets(), p.Assoc)
		got = allocBytes(func() {
			c.AttachEndurance(nil)
			c.AttachEndurance(ret)
		})
		if got != uint64(8*ways) {
			t.Errorf("%d B/%d-way: attaching retention allocated %d bytes, want exactly %d", p.SizeBytes, p.Assoc, got, 8*ways)
		}
		c.AttachEndurance(nil)
		if c.written != nil {
			t.Errorf("%d B/%d-way: detaching kept the write-stamp column", p.SizeBytes, p.Assoc)
		}
	}
}
