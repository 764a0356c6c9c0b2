package mem

import (
	"fmt"
	"testing"

	"respin/internal/config"
)

// pow2Params builds an L2-like geometry whose set count is a power of
// two, so NewCache enables the mask fast path.
func pow2Params() config.CacheParams {
	return config.CacheParams{SizeBytes: 512 << 10, Assoc: 8, BlockBytes: 64, ReadPorts: 1, WritePorts: 1}
}

// npow2Params builds the 48 MB L3 geometry: 3x2^k sets, which must keep
// the modulo path.
func npow2Params() config.CacheParams {
	return config.CacheParams{SizeBytes: 48 << 20, Assoc: 16, BlockBytes: 64, ReadPorts: 1, WritePorts: 1}
}

func TestSetIndexMaskMatchesModulo(t *testing.T) {
	for _, p := range []config.CacheParams{pow2Params(), npow2Params()} {
		c := NewCache(p)
		if wantMask := c.numSets&(c.numSets-1) == 0; c.maskable != wantMask {
			t.Fatalf("sets=%d: maskable=%v, want %v", c.numSets, c.maskable, wantMask)
		}
		for _, block := range []uint64{0, 1, c.numSets - 1, c.numSets, c.numSets + 1,
			12345678901234, 1<<63 - 1, 0xFFFFFFFFFFFFFFFF} {
			if got, want := c.setIndex(block), block%c.numSets; got != want {
				t.Fatalf("sets=%d block=%#x: setIndex=%d, want %d", c.numSets, block, got, want)
			}
		}
	}
}

// benchSetIndex exercises the set-index path through Access on a hit
// stream, the hot loop of every simulated memory reference.
func benchSetIndex(b *testing.B, p config.CacheParams) {
	b.ReportAllocs()
	c := NewCache(p)
	const blocks = 1024
	for i := uint64(0); i < blocks; i++ {
		c.Fill(i<<c.blockShift, false)
	}
	b.ResetTimer()
	var idx, sink uint64
	for i := 0; i < b.N; i++ {
		// Mix the stream so the branch predictor cannot memorise a
		// single set while still hitting resident blocks.
		idx = (idx*2654435761 + 1) % blocks
		sink += c.setIndex(idx)
	}
	benchSink = sink
}

// benchSink defeats dead-code elimination of the benchmark loop.
var benchSink uint64

func BenchmarkSetIndexPow2(b *testing.B)    { benchSetIndex(b, pow2Params()) }
func BenchmarkSetIndexNonPow2(b *testing.B) { benchSetIndex(b, npow2Params()) }

// benchCache keeps the benchmark's arrays on the heap.
var benchCache *Cache

// BenchmarkNewCache builds the Table I L2 and L3 of every scale; B/op
// is what one array costs before its first fill.
func BenchmarkNewCache(b *testing.B) {
	for _, scale := range config.AllScales {
		h := config.NewHierarchy(scale, config.SharedL1, 16)
		for _, lv := range []struct {
			name string
			p    config.CacheParams
		}{{"L2", h.L2}, {"L3", h.L3}} {
			b.Run(fmt.Sprintf("%v/%s", scale, lv.name), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					benchCache = NewCache(lv.p)
				}
			})
		}
	}
}
