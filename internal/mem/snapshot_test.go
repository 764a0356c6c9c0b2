package mem

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"respin/internal/config"
	"respin/internal/endurance"
)

// snapGeometries are the two set-index paths: a power-of-two set count
// (masked, every L1/L2) and a 3x2^k one (fastmod, the 48 MB L3).
var snapGeometries = []struct {
	name string
	p    config.CacheParams
}{
	{"pow2", config.CacheParams{SizeBytes: 4096, BlockBytes: 32, Assoc: 4, ReadPorts: 1, WritePorts: 1}},
	{"3x2^k", config.CacheParams{SizeBytes: 3 * 1024, BlockBytes: 32, Assoc: 4, ReadPorts: 1, WritePorts: 1}},
}

// cacheOp is one mutation of a cache; applying the same []cacheOp to
// two caches in the same state must give the same outputs.
type cacheOp struct {
	kind  int
	addr  uint64
	write bool
	st    LineState
}

// opOut is everything an op reports to its caller.
type opOut struct {
	r AccessResult
	n int
}

// randomOps draws n ops over a block range four times the cache's
// capacity, so sets overflow and evict.
func randomOps(rng *rand.Rand, c *Cache, n int) []cacheOp {
	blocks := 4 * c.Capacity()
	ops := make([]cacheOp, n)
	for i := range ops {
		ops[i] = cacheOp{
			kind:  rng.Intn(100),
			addr:  uint64(rng.Intn(blocks)) * uint64(c.Params().BlockBytes),
			write: rng.Intn(2) == 0,
			st:    LineState(1 + rng.Intn(4)),
		}
	}
	return ops
}

func applyOps(c *Cache, ops []cacheOp) []opOut {
	out := make([]opOut, len(ops))
	for i, op := range ops {
		switch {
		case op.kind < 35:
			out[i].r = c.Access(op.addr, op.write)
		case op.kind < 65:
			out[i].r = c.Fill(op.addr, op.write)
		case op.kind < 75:
			out[i].r = c.FillState(op.addr, op.st)
		case op.kind < 85:
			out[i].r = c.Invalidate(op.addr)
		case op.kind < 92:
			out[i].r.Hit = c.SetState(op.addr, op.st)
		case op.kind < 99:
			c.SetNow(c.now + op.addr%7)
			out[i].n = int(c.now)
		default:
			out[i].n = c.Clear()
		}
	}
	return out
}

// assertSameState fails unless got holds exactly want's mutable state.
func assertSameState(t *testing.T, want, got *Cache) {
	t.Helper()
	if !slices.Equal(want.tags, got.tags) || !slices.Equal(want.used, got.used) ||
		!slices.Equal(want.written, got.written) || !slices.Equal(want.state, got.state) {
		t.Fatal("restored columns differ from the source's")
	}
	if want.tick != got.tick || want.now != got.now || want.rotation != got.rotation {
		t.Fatalf("restored clocks tick/now/rotation = %d/%d/%d, want %d/%d/%d",
			got.tick, got.now, got.rotation, want.tick, want.now, want.rotation)
	}
	if want.Stats != got.Stats {
		t.Fatalf("restored stats %+v, want %+v", got.Stats, want.Stats)
	}
}

// TestSnapshotRoundTrip: a sparse snapshot restored into a fresh cache
// or into one holding other contents reproduces the source exactly, and
// all three then answer a further op sequence identically.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, g := range snapGeometries {
		t.Run(g.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				src := NewCache(g.p)
				if st := src.Snapshot(); len(st.Index) != 0 || st.Ways != src.Capacity() {
					t.Fatalf("fresh snapshot lists %d of %d ways, want 0 of %d", len(st.Index), st.Ways, src.Capacity())
				}
				applyOps(src, randomOps(rng, src, 300))
				snap := src.Snapshot()

				fresh := NewCache(g.p)
				other := NewCache(g.p)
				applyOps(other, randomOps(rng, other, 300))
				for _, dst := range []*Cache{fresh, other} {
					if err := dst.Restore(snap); err != nil {
						t.Fatal(err)
					}
					assertSameState(t, src, dst)
					if !reflect.DeepEqual(dst.Snapshot(), snap) {
						t.Fatal("snapshot of the restored cache differs from the original snapshot")
					}
				}

				more := randomOps(rng, src, 300)
				want := applyOps(src, more)
				for _, dst := range []*Cache{fresh, other} {
					if got := applyOps(dst, more); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d: restored cache answered a further op sequence differently", seed)
					}
					assertSameState(t, src, dst)
				}
			}
		})
	}
}

// TestRestoreRejectsInvalidState: a state that does not fit the array
// is an error, never a panic or an out-of-range write, and leaves the
// array as it was.
func TestRestoreRejectsInvalidState(t *testing.T) {
	c := smallCache() // 8 ways
	valid := func() CacheState {
		return CacheState{
			Ways: 8, Index: []uint32{1, 5},
			Tags: []uint64{3, 4}, Used: []uint64{1, 2}, Written: []uint64{0, 0},
			LineStates: []LineState{StateValid, StateDirty},
		}
	}
	cases := map[string]func(*CacheState){
		"way count":        func(st *CacheState) { st.Ways = 16 },
		"negative ways":    func(st *CacheState) { st.Ways = -8 },
		"index = ways":     func(st *CacheState) { st.Index[1] = 8 },
		"index max uint32": func(st *CacheState) { st.Index[1] = math.MaxUint32 },
		"descending":       func(st *CacheState) { st.Index = []uint32{5, 1} },
		"duplicate":        func(st *CacheState) { st.Index = []uint32{5, 5} },
		"short tags":       func(st *CacheState) { st.Tags = st.Tags[:1] },
		"long used":        func(st *CacheState) { st.Used = append(st.Used, 9) },
		"nil written":      func(st *CacheState) { st.Written = nil },
		"short states":     func(st *CacheState) { st.LineStates = st.LineStates[:1] },
	}
	if err := c.Restore(valid()); err != nil {
		t.Fatalf("valid state refused: %v", err)
	}
	c.Fill(0x40, true)
	before := c.Snapshot()
	for name, mutate := range cases {
		st := valid()
		mutate(&st)
		if err := c.Restore(st); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !reflect.DeepEqual(c.Snapshot(), before) {
			t.Fatalf("%s: refused restore modified the cache", name)
		}
	}
}

// FuzzCacheRestore feeds Restore arbitrary sparse states. Restore must
// accept exactly the states that fit the array — right way count, equal
// column lengths, strictly ascending in-range indices — and refuse the
// rest without touching the array. An accepted state must land exactly:
// listed ways hold the given values, every other way is zero, and the
// array keeps working.
func FuzzCacheRestore(f *testing.F) {
	// skew 0x55 gives every column the index's length.
	f.Add(64, []byte{0, 1, 2, 63}, uint8(0x55), uint64(1))
	f.Add(64, []byte{}, uint8(0x55), uint64(2))
	f.Add(64, []byte{3, 2}, uint8(0x55), uint64(3))
	f.Add(64, []byte{7, 7}, uint8(0x55), uint64(4))
	f.Add(64, []byte{1, 64}, uint8(0x55), uint64(5))
	f.Add(64, []byte{1, 2}, uint8(0x54), uint64(6))
	f.Add(32, []byte{1, 2}, uint8(0x55), uint64(7))
	f.Add(-64, []byte{}, uint8(0x55), uint64(8))
	f.Fuzz(func(t *testing.T, ways int, index []byte, skew uint8, seed uint64) {
		c := fuzzCache()
		before := c.Snapshot()

		st := CacheState{Ways: ways, Tick: seed, Now: seed >> 1, Rotation: seed % 5}
		for _, b := range index {
			st.Index = append(st.Index, uint32(b))
		}
		// Each column's length is the index's plus -1, 0, +1 or +2.
		colLen := func(j int) int { return max(0, len(index)+int(skew>>(2*j)&3)-1) }
		rng := rand.New(rand.NewSource(int64(seed)))
		for k := 0; k < colLen(0); k++ {
			st.Tags = append(st.Tags, rng.Uint64()>>rng.Intn(64))
		}
		for k := 0; k < colLen(1); k++ {
			st.Used = append(st.Used, rng.Uint64()>>rng.Intn(64))
		}
		for k := 0; k < colLen(2); k++ {
			st.Written = append(st.Written, rng.Uint64()>>rng.Intn(64))
		}
		for k := 0; k < colLen(3); k++ {
			st.LineStates = append(st.LineStates, LineState(rng.Intn(256)))
		}

		fits := ways == c.Capacity()
		for j := 0; j < 4; j++ {
			fits = fits && colLen(j) == len(index)
		}
		for k, w := range st.Index {
			fits = fits && int(w) < ways && (k == 0 || w > st.Index[k-1])
		}

		err := c.Restore(st)
		if !fits {
			if err == nil {
				t.Fatalf("accepted a state that does not fit: %+v", st)
			}
			if !reflect.DeepEqual(c.Snapshot(), before) {
				t.Fatal("refused restore modified the cache")
			}
			return
		}
		if err != nil {
			t.Fatalf("refused a state that fits: %v", err)
		}
		assertLanded(t, c, st)
		applyOps(c, randomOps(rng, c, 50))
	})
}

// assertLanded fails unless the accepted state st landed exactly in c:
// listed ways hold the given values, every other way is zero, and a
// fresh array restored from c's snapshot matches c.
func assertLanded(t *testing.T, c *Cache, st CacheState) {
	t.Helper()
	k := 0
	for i := range c.tags {
		var tag, used, written uint64
		var ls LineState
		if k < len(st.Index) && int(st.Index[k]) == i {
			tag, used, written, ls = st.Tags[k], st.Used[k], st.Written[k], st.LineStates[k]
			k++
		}
		if c.tags[i] != tag || c.used[i] != used || c.written[i] != written || c.state[i] != ls {
			t.Fatalf("way %d holds (%d,%d,%d,%d), want (%d,%d,%d,%d)",
				i, c.tags[i], c.used[i], c.written[i], c.state[i], tag, used, written, ls)
		}
	}
	if c.tick != st.Tick || c.now != st.Now || c.rotation != st.Rotation || c.Stats != st.Stats {
		t.Fatal("restored clocks or stats differ from the state's")
	}
	again := NewCache(c.Params())
	if err := again.Restore(c.Snapshot()); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, c, again)
}

// fuzzCache is the fuzz targets' array, 16 sets x 4 ways, pre-filled so
// a refused restore has something to disturb.
func fuzzCache() *Cache {
	c := NewCache(config.CacheParams{SizeBytes: 2048, BlockBytes: 32, Assoc: 4, ReadPorts: 1, WritePorts: 1})
	for a := uint64(0); a < 40; a++ {
		c.Fill(a*32*3, a%3 == 0)
	}
	return c
}

// FuzzCacheStateDecode feeds arbitrary bytes through the checkpoint
// record decoder and then Restore. The decoder must refuse the bytes or
// return a state no larger than the input can describe, which
// re-encodes to a record that decodes to the same state; Restore must
// then refuse the state, leaving the array as it was, or land it
// exactly. Never a panic.
func FuzzCacheStateDecode(f *testing.F) {
	record := func(st CacheState) []byte {
		b, err := st.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	filled := record(fuzzCache().Snapshot())
	f.Add(filled)
	f.Add(record(NewCache(fuzzCache().Params()).Snapshot()))
	f.Add(filled[:len(filled)-1])
	f.Add(append(filled[:len(filled):len(filled)], 0))
	f.Add(record(CacheState{Ways: 64, Index: []uint32{63, 2}, Tags: []uint64{1, 2}, Used: []uint64{3, 4},
		Written: []uint64{5, 6}, LineStates: []LineState{1, 2}}))
	f.Add([]byte{0x80, 0x01, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		var st CacheState
		if err := st.UnmarshalBinary(data); err != nil {
			return
		}
		if wayRecordBytes*len(st.Index) > len(data) {
			t.Fatalf("%d input bytes decoded to %d ways", len(data), len(st.Index))
		}
		enc, err := st.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var again CacheState
		if err := again.UnmarshalBinary(enc); err != nil || !reflect.DeepEqual(again, st) {
			t.Fatalf("re-encoded record decodes to %+v (%v), want %+v", again, err, st)
		}
		c := fuzzCache()
		before := c.Snapshot()
		if err := c.Restore(st); err != nil {
			if !reflect.DeepEqual(c.Snapshot(), before) {
				t.Fatal("refused restore modified the cache")
			}
			return
		}
		assertLanded(t, c, st)
	})
}

// fullScan is the oracle Snapshot must match: every way of the array
// scanned, and those with any non-zero column listed.
func fullScan(c *Cache) CacheState {
	st := CacheState{Ways: len(c.tags), Tick: c.tick, Now: c.now, Rotation: c.rotation, Stats: c.Stats}
	for i := range c.tags {
		if c.tags[i]|c.used[i]|c.written[i] == 0 && c.state[i] == StateInvalid {
			continue
		}
		st.Index = append(st.Index, uint32(i))
		st.Tags = append(st.Tags, c.tags[i])
		st.Used = append(st.Used, c.used[i])
		st.Written = append(st.Written, c.written[i])
		st.LineStates = append(st.LineStates, c.state[i])
	}
	return st
}

// TestSnapshotMatchesFullScan: over random sequences of fills,
// invalidations, Clear, Restore (of earlier snapshots, and of states
// listing all-zero ways), scrubs, wear-leveling rotations and endurance
// retirements, the touched-way Snapshot equals a full scan of the array
// after every step, and its checkpoint record decodes to the same state.
func TestSnapshotMatchesFullScan(t *testing.T) {
	for _, g := range snapGeometries {
		for _, wear := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/wear=%v", g.name, wear), func(t *testing.T) {
				var rotations, retired int
				for seed := int64(1); seed <= 10; seed++ {
					rng := rand.New(rand.NewSource(seed))
					c := NewCache(g.p)
					var tr *endurance.Tracker
					if wear {
						tr = endurance.NewTracker(endurance.Params{
							Seed: seed, BudgetMean: 40, BudgetSigma: 0.5,
							RetentionCycles: 60, WearLevel: true, WearLevelPeriod: 97,
						})
						c.AttachEndurance(tr.NewArray("test", 0, int(c.numSets), c.assoc))
					}
					var saved []CacheState
					for step := 0; step < 600; step++ {
						switch op := rng.Intn(40); {
						case op == 0:
							saved = append(saved, c.Snapshot())
						case op == 1 && len(saved) > 0:
							if err := c.Restore(saved[rng.Intn(len(saved))]); err != nil {
								t.Fatal(err)
							}
						case op == 2:
							// A valid state may list ways whose columns
							// are all zero; Snapshot must leave them out.
							w := uint32(rng.Intn(c.Capacity()))
							zero := CacheState{Ways: c.Capacity(), Index: []uint32{w}, Tags: []uint64{0},
								Used: []uint64{0}, Written: []uint64{0}, LineStates: []LineState{StateInvalid}}
							if err := c.Restore(zero); err != nil {
								t.Fatal(err)
							}
						case op == 3 && wear:
							c.Scrub(c.now)
						default:
							applyOps(c, randomOps(rng, c, 1+rng.Intn(8)))
						}
						got, want := c.Snapshot(), fullScan(c)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d step %d: snapshot lists %d ways, full scan %d", seed, step, len(got.Index), len(want.Index))
						}
						rec, err := got.MarshalBinary()
						if err != nil {
							t.Fatal(err)
						}
						var dec CacheState
						if err := dec.UnmarshalBinary(rec); err != nil || !reflect.DeepEqual(dec, want) {
							t.Fatalf("seed %d step %d: record round trip differs (%v)", seed, step, err)
						}
					}
					if tr != nil {
						rep := tr.Report(c.now)
						rotations += int(rep.Rotations)
						retired += rep.RetiredWays
					}
				}
				if wear && (rotations == 0 || retired == 0) {
					t.Fatalf("sequences never rotated (%d) or retired a way (%d)", rotations, retired)
				}
			})
		}
	}
}

// TestCacheStateRecordRefusesDamage: a record cut short, one with a
// trailing byte, or one whose way count exceeds what its bytes can hold
// is refused, never decoded into a partial state.
func TestCacheStateRecordRefusesDamage(t *testing.T) {
	c := smallCache()
	c.Fill(0x40, true)
	c.Fill(0x80, false)
	rec, err := c.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(rec); n++ {
		var st CacheState
		if err := st.UnmarshalBinary(rec[:n]); err == nil {
			t.Fatalf("record cut to %d of %d bytes accepted", n, len(rec))
		}
	}
	var st CacheState
	if err := st.UnmarshalBinary(append(rec, 0)); err == nil {
		t.Fatal("record with a trailing byte accepted")
	}
	// Ways 8, then a way count of 2^40 with nothing behind it.
	if err := st.UnmarshalBinary([]byte{0x10, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}); err == nil {
		t.Fatal("way count beyond the input accepted")
	}
	if _, err := (CacheState{Index: []uint32{1}}).MarshalBinary(); err == nil {
		t.Fatal("columns of unequal length encoded")
	}
}

// TestStatsCountersCoverEveryField: the checkpoint record lists every
// Stats counter, in declaration order.
func TestStatsCountersCoverEveryField(t *testing.T) {
	var s Stats
	cs := s.counters()
	v := reflect.ValueOf(&s).Elem()
	if v.NumField() != len(cs) {
		t.Fatalf("Stats has %d fields, the record lists %d", v.NumField(), len(cs))
	}
	for i, c := range cs {
		if v.Field(i).Addr().Interface() != any(c) {
			t.Fatalf("record counter %d is not Stats field %s", i, v.Type().Field(i).Name)
		}
	}
}
