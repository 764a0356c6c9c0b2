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
	for i := range want.Capacity() {
		wt, ws, wa, ww := want.wayAt(i)
		gt, gs, ga, gw := got.wayAt(i)
		if wt != gt || ws != gs || wa != ga || ww != gw {
			t.Fatalf("restored way %d holds (%d,%d,%d,%d), the source's (%d,%d,%d,%d)", i, gt, gs, ga, gw, wt, ws, wa, ww)
		}
	}
	if (want.written == nil) != (got.written == nil) {
		t.Fatal("restored array keeps write stamps where the source does not, or the reverse")
	}
	if want.now != got.now || want.rotation != got.rotation {
		t.Fatalf("restored clocks now/rotation = %d/%d, want %d/%d",
			got.now, got.rotation, want.now, want.rotation)
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
// array as it was. That covers the geometry, the column lengths, the
// write-stamp column's presence, and the LRU rank invariant.
func TestRestoreRejectsInvalidState(t *testing.T) {
	c := smallCache() // 4 sets x 2 ways
	// Ways 0 and 1 are set 0 (ranks 2 and 1), way 5 is set 2 (rank 1).
	valid := func() CacheState {
		return CacheState{
			Ways: 8, Index: []uint32{0, 1, 5},
			Tags: []uint64{2, 3, 4}, Age: []uint8{2, 1, 1},
			LineStates: []LineState{StateValid, StateDirty, StateValid},
		}
	}
	cases := map[string]func(*CacheState){
		"way count":         func(st *CacheState) { st.Ways = 16 },
		"negative ways":     func(st *CacheState) { st.Ways = -8 },
		"index = ways":      func(st *CacheState) { st.Index[2] = 8 },
		"index max uint32":  func(st *CacheState) { st.Index[2] = math.MaxUint32 },
		"descending":        func(st *CacheState) { st.Index = []uint32{5, 1, 0} },
		"duplicate":         func(st *CacheState) { st.Index = []uint32{0, 5, 5} },
		"short tags":        func(st *CacheState) { st.Tags = st.Tags[:1] },
		"long ranks":        func(st *CacheState) { st.Age = append(st.Age, 1) },
		"nil ranks":         func(st *CacheState) { st.Age = nil },
		"short states":      func(st *CacheState) { st.LineStates = st.LineStates[:1] },
		"write stamps":      func(st *CacheState) { st.Written = []uint64{0, 0, 0} },
		"retention flag":    func(st *CacheState) { st.Retention, st.Written = true, []uint64{0, 0, 0} },
		"repeated rank":     func(st *CacheState) { st.Age[0] = 1 },
		"rank gap":          func(st *CacheState) { st.Age[2] = 2 },
		"rank above assoc":  func(st *CacheState) { st.Age[0] = 3 },
		"rank 255":          func(st *CacheState) { st.Age[2] = 255 },
		"valid without":     func(st *CacheState) { st.Age[2] = 0 },
		"set 0 without one": func(st *CacheState) { st.Age[0], st.Age[1] = 2, 0; st.LineStates[1] = StateInvalid },
	}
	if err := c.Restore(valid()); err != nil {
		t.Fatalf("valid state refused: %v", err)
	}
	// An invalid way may keep a rank, and a never-stamped invalid way
	// may keep a stale tag.
	spare := valid()
	spare.LineStates[0] = StateInvalid
	spare.Index, spare.Tags, spare.Age = append(spare.Index, 6), append(spare.Tags, 9), append(spare.Age, 0)
	spare.LineStates = append(spare.LineStates, StateInvalid)
	if err := c.Restore(spare); err != nil {
		t.Fatalf("valid state with an invalid ranked way refused: %v", err)
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

	// An array with a retention model refuses a state without write
	// stamps, and takes one with them.
	r, _ := endurCache(endurance.Params{Seed: 1, BudgetMean: 1e9, RetentionCycles: 100})
	if err := r.Restore(valid()); err == nil {
		t.Error("retention array accepted a state without write stamps")
	}
	st := valid()
	st.Retention, st.Written = true, []uint64{7, 8, 9}
	if err := r.Restore(st); err != nil {
		t.Fatalf("retention array refused a state with write stamps: %v", err)
	}
	st.Written = st.Written[:2]
	if err := r.Restore(st); err == nil {
		t.Error("retention array accepted a short write-stamp column")
	}
}

// TestRestoreLastWayOnly: a state listing only the last way of a
// 16-way set restores into a block that reaches that way, with the 15
// ways before it empty. Fills of the set then take ways 0 to 14 in
// order without evicting, and the next fill evicts the restored line,
// by then the least recently used; the snapshot lists the set's ways
// in order.
func TestRestoreLastWayOnly(t *testing.T) {
	const sets, assoc, set = 8, 16, 2
	c := NewCache(config.CacheParams{SizeBytes: sets * assoc * 32, BlockBytes: 32, Assoc: assoc, ReadPorts: 1, WritePorts: 1})
	restored := uint64(20*sets + set)
	st := CacheState{Ways: sets * assoc, Index: []uint32{set*assoc + assoc - 1}, Tags: []uint64{restored},
		Age: []uint8{1}, LineStates: []LineState{StateDirty}}
	if err := c.Restore(st); err != nil {
		t.Fatal(err)
	}
	if c.State(restored<<5) != StateDirty {
		t.Fatal("the restored line is not present")
	}
	for k := range uint64(assoc - 1) {
		if r := c.Fill((k*sets+set)<<5, false); r.Evicted || r.Bypassed {
			t.Fatalf("fill %d into a set with free ways reported %+v", k, r)
		}
	}
	r := c.Fill((uint64(assoc-1)*sets+set)<<5, false)
	if !r.Evicted || r.EvictedAddr != restored<<5 || !r.Writeback {
		t.Fatalf("the fill of a full set reported %+v, want the restored dirty line evicted", r)
	}
	snap := c.Snapshot()
	if len(snap.Index) != assoc {
		t.Fatalf("snapshot lists %d ways, want the set's %d", len(snap.Index), assoc)
	}
	for k, w := range snap.Index {
		if want := uint32(set*assoc + k); w != want {
			t.Fatalf("snapshot lists way %d at %d, want %d", w, k, want)
		}
		if tag := snap.Tags[k]; tag != uint64(k)*sets+set {
			t.Fatalf("way %d holds block %d, want %d", w, tag, uint64(k)*sets+set)
		}
	}
}

// FuzzCacheRestore feeds Restore arbitrary sparse states. Restore must
// accept exactly the states that fit the array — right way count, equal
// column lengths, no write stamps (the array has no retention model),
// strictly ascending in-range indices, and ranks that keep the LRU
// invariant — and refuse the rest without touching the array. An
// accepted state must land exactly: listed ways hold the given values,
// every other way is zero, and the array keeps working.
func FuzzCacheRestore(f *testing.F) {
	// skew 0x55 gives every column the index's length; rankMode 0 draws
	// ranks that keep the invariant, 2 damages one, 3 draws raw bytes.
	f.Add(64, []byte{0, 1, 2, 63}, uint8(0x55), uint8(0), uint64(1))
	f.Add(64, []byte{}, uint8(0x55), uint8(0), uint64(2))
	f.Add(64, []byte{3, 2}, uint8(0x55), uint8(0), uint64(3))
	f.Add(64, []byte{7, 7}, uint8(0x55), uint8(0), uint64(4))
	f.Add(64, []byte{1, 64}, uint8(0x55), uint8(0), uint64(5))
	f.Add(64, []byte{1, 2}, uint8(0x54), uint8(0), uint64(6))
	f.Add(32, []byte{1, 2}, uint8(0x55), uint8(0), uint64(7))
	f.Add(-64, []byte{}, uint8(0x55), uint8(0), uint64(8))
	f.Add(64, []byte{4, 5, 6, 7, 9}, uint8(0x55), uint8(2), uint64(9))
	f.Add(64, []byte{4, 5, 6, 7, 9}, uint8(0x55), uint8(3), uint64(10))
	f.Add(64, []byte{63}, uint8(0x55), uint8(0), uint64(11))
	f.Fuzz(func(t *testing.T, ways int, index []byte, skew, rankMode uint8, seed uint64) {
		c := fuzzCache()
		before := c.Snapshot()

		st := CacheState{Ways: ways, Now: seed >> 1, Rotation: seed % 5}
		for _, b := range index {
			st.Index = append(st.Index, uint32(b))
		}
		// Each column's length is the index's plus -1, 0, +1 or +2; the
		// write-stamp column's is 0 (top bits 0 or 1), or the index's
		// plus 0 or +1.
		colLen := func(j int) int { return max(0, len(index)+int(skew>>(2*j)&3)-1) }
		writtenLen := 0
		if m := int(skew >> 6); m >= 2 {
			writtenLen = len(index) + m - 2
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		for k := 0; k < colLen(0); k++ {
			st.Tags = append(st.Tags, rng.Uint64()>>rng.Intn(64))
		}
		for k := 0; k < writtenLen; k++ {
			st.Written = append(st.Written, rng.Uint64()>>rng.Intn(64))
		}
		for k := 0; k < colLen(2); k++ {
			st.LineStates = append(st.LineStates, LineState(rng.Intn(256)))
		}
		st.Age = fuzzRanks(rng, st.Index, st.LineStates, colLen(1), c.assoc, rankMode)

		fits := ways == c.Capacity() && writtenLen == 0
		for j := 0; j < 3; j++ {
			fits = fits && colLen(j) == len(index)
		}
		for k, w := range st.Index {
			fits = fits && int(w) < ways && (k == 0 || w > st.Index[k-1])
		}
		fits = fits && ranksKeepInvariant(st, c.assoc)

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

// fuzzRanks draws n ranks for the listed ways. Modes 0 and 1 (mod 4)
// keep the LRU invariant where the index allows it: each set's valid
// ways get a random order of 1..k and some invalid ways join it. Mode 2
// damages one such rank; mode 3 draws raw bytes.
func fuzzRanks(rng *rand.Rand, index []uint32, states []LineState, n, assoc int, mode uint8) []uint8 {
	ranks := make([]uint8, n)
	if mode%4 == 3 {
		for k := range ranks {
			ranks[k] = uint8(rng.Intn(256))
		}
		return ranks
	}
	for lo := 0; lo < n; {
		if lo >= len(index) {
			ranks[lo] = 1 // a column longer than the index: refused anyway
			lo++
			continue
		}
		hi := lo + 1
		for hi < n && hi < len(index) && index[hi]/uint32(assoc) == index[lo]/uint32(assoc) {
			hi++
		}
		var ranked []int
		for k := lo; k < hi; k++ {
			if k >= len(states) || states[k] != StateInvalid || rng.Intn(2) == 0 {
				ranked = append(ranked, k)
			}
		}
		for r, p := range rng.Perm(len(ranked)) {
			ranks[ranked[p]] = uint8(r + 1)
		}
		lo = hi
	}
	if mode%4 == 2 && n > 0 {
		ranks[rng.Intn(n)] = uint8(rng.Intn(assoc + 2))
	}
	return ranks
}

// ranksKeepInvariant is the fuzz targets' independent statement of the
// rank invariant over a state whose indices are ascending and in range:
// in each set, the sorted non-zero ranks are exactly 1..k and every
// valid line has one.
func ranksKeepInvariant(st CacheState, assoc int) bool {
	sets := map[uint32][]uint8{}
	for k, w := range st.Index {
		if st.Age[k] == 0 {
			if st.LineStates[k] != StateInvalid {
				return false
			}
			continue
		}
		sets[w/uint32(assoc)] = append(sets[w/uint32(assoc)], st.Age[k])
	}
	for _, ranks := range sets {
		slices.Sort(ranks)
		for r, a := range ranks {
			if int(a) != r+1 {
				return false
			}
		}
	}
	return true
}

// assertLanded fails unless the accepted state st landed exactly in c:
// listed ways hold the given values, every other way is zero, and a
// fresh array restored from c's snapshot matches c.
func assertLanded(t *testing.T, c *Cache, st CacheState) {
	t.Helper()
	if (c.written != nil) != st.Retention {
		t.Fatalf("array keeps write stamps %v, state %v", c.written != nil, st.Retention)
	}
	k := 0
	for i := range c.Capacity() {
		var tag, written uint64
		var age uint8
		var ls LineState
		if k < len(st.Index) && int(st.Index[k]) == i {
			tag, age, ls = st.Tags[k], st.Age[k], st.LineStates[k]
			if st.Retention {
				written = st.Written[k]
			}
			k++
		}
		gotTag, gotState, gotAge, gotWritten := c.wayAt(i)
		if gotTag != tag || gotAge != age || gotWritten != written || gotState != ls {
			t.Fatalf("way %d holds (%d,%d,%d,%d), want (%d,%d,%d,%d)",
				i, gotTag, gotAge, gotWritten, gotState, tag, age, written, ls)
		}
	}
	if c.now != st.Now || c.rotation != st.Rotation || c.Stats != st.Stats {
		t.Fatal("restored clocks or stats differ from the state's")
	}
	again := NewCache(c.Params())
	again.AttachEndurance(c.Endurance())
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
	f.Add(record(CacheState{Ways: 64, Index: []uint32{63, 2}, Tags: []uint64{1, 2}, Age: []uint8{3, 4},
		LineStates: []LineState{1, 2}}))
	f.Add([]byte{0x80, 0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(record(CacheState{Ways: 64, Retention: true, Index: []uint32{0, 1}, Tags: []uint64{1, 2},
		Written: []uint64{5, 6}, Age: []uint8{2, 1}, LineStates: []LineState{1, 2}}))
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
	st := CacheState{Ways: c.Capacity(), Retention: c.written != nil, Now: c.now, Rotation: c.rotation, Stats: c.Stats}
	for i := range c.Capacity() {
		tag, ls, age, written := c.wayAt(i)
		if tag|written == 0 && age == 0 && ls == StateInvalid {
			continue
		}
		st.Index = append(st.Index, uint32(i))
		st.Tags = append(st.Tags, tag)
		if c.written != nil {
			st.Written = append(st.Written, written)
		}
		st.Age = append(st.Age, age)
		st.LineStates = append(st.LineStates, ls)
	}
	return st
}

// TestSnapshotMatchesFullScan: over random sequences of fills,
// invalidations, Clear, Restore (of earlier snapshots, and of states
// listing all-zero ways), scrubs, wear-leveling rotations and endurance
// retirements, the block-walking Snapshot equals a full scan of the array
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
							zero := CacheState{Ways: c.Capacity(), Retention: wear, Index: []uint32{w}, Tags: []uint64{0},
								Age: []uint8{0}, LineStates: []LineState{StateInvalid}}
							if wear {
								zero.Written = []uint64{0}
							}
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
