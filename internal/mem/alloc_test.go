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

// liveBytes returns the heap bytes the value fn returns keeps alive:
// the live heap after a collection with it held, less the live heap
// before fn ran.
func liveBytes(fn func() any) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := fn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return after.HeapAlloc - before.HeapAlloc
}

// TestCacheBytesPerWay pins the array's host footprint: for every
// Table I geometry, NewCache allocates no per-way column, only one
// 4-byte word per set and the Cache header.
// Attaching an endurance model without retention adds nothing; one with
// retention adds the 8-byte write-stamp column for every way the pool
// has room for, and detaching frees it.
func TestCacheBytesPerWay(t *testing.T) {
	const header = 512 // the Cache struct, rounded up to its size class
	for _, p := range tableIGeometries() {
		ways := p.Sets() * p.Assoc
		var c *Cache
		got := allocBytes(func() { c = NewCache(p) })
		limit := uint64(4*p.Sets() + header)
		if got > limit {
			t.Errorf("%d B/%d-way: NewCache allocated %d bytes for %d sets (%.2f per way), limit %d",
				p.SizeBytes, p.Assoc, got, p.Sets(), float64(got)/float64(ways), limit)
		}
		for b := range uint64(3 * p.Assoc) {
			c.Fill(b<<c.blockShift, false)
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
		pool := cap(c.tags)
		if want := allocBytes(func() { stampSink = make([]uint64, pool) }); got != want {
			t.Errorf("%d B/%d-way: attaching retention allocated %d bytes, want exactly %d, a column of %d pool ways", p.SizeBytes, p.Assoc, got, want, pool)
		}
		c.AttachEndurance(nil)
		if c.written != nil {
			t.Errorf("%d B/%d-way: detaching kept the write-stamp column", p.SizeBytes, p.Assoc)
		}
	}
}

// stampSink keeps the reference write-stamp column on the heap.
var stampSink []uint64

// TestFullArrayFootprint bounds the worst case: with every way of the
// Table I 8-way L2 and 16-way L3 filled, round by round across all sets
// so that every block grows through every capacity while the pool
// reallocates, the array keeps at most 1.3 times the 10 bytes per way
// a flat layout of tags, states and ranks costs.
func TestFullArrayFootprint(t *testing.T) {
	h := config.NewHierarchy(config.Medium, config.SharedL1, 16)
	for _, p := range []config.CacheParams{h.L2, h.L3} {
		ways := p.Sets() * p.Assoc
		var c *Cache
		got := liveBytes(func() any {
			c = NewCache(p)
			for round := range uint64(p.Assoc) {
				for s := range uint64(p.Sets()) {
					c.Fill((round*c.numSets+s)<<c.blockShift, false)
				}
			}
			return c
		})
		if n := c.Occupancy(); n != ways {
			t.Fatalf("%d-way: %d of %d ways hold a line", p.Assoc, n, ways)
		}
		t.Logf("%d-way: %d bytes, %.2f per way", p.Assoc, got, float64(got)/float64(ways))
		if limit := uint64(13 * ways); got > limit {
			t.Errorf("%d-way: a full array keeps %d bytes (%.2f per way), limit %d (13 per way)",
				p.Assoc, got, float64(got)/float64(ways), limit)
		}
	}
}

// TestNewCacheRefusesArraysBeyondThePool: a set word holds a 24-bit
// pool offset, so an array whose pool could outgrow it is refused
// before anything is allocated.
func TestNewCacheRefusesArraysBeyondThePool(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCache built a 1 GB array of 32-byte blocks")
		}
	}()
	NewCache(config.CacheParams{SizeBytes: 1 << 30, BlockBytes: 32, Assoc: 16, ReadPorts: 1, WritePorts: 1})
}
