package mem

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"respin/internal/config"
	"respin/internal/endurance"
)

// stampRef is the reference the rank column must match: LRU by
// timestamps, the rule ranks replaced. Every hit or fill stamps its way
// with a cache-wide tick that every access and fill advances; the
// victim is the first invalid way that is not retired, else the live
// way with the smallest stamp. It models endurance retirement and
// wear-leveling rotation, not retention.
type stampRef struct {
	assoc    int
	sets     uint64
	shift    uint
	tags     []uint64
	used     []uint64
	state    []LineState
	tick     uint64
	rotation uint64
	endur    *endurance.Array
}

func newStampRef(p config.CacheParams) *stampRef {
	c := NewCache(p) // for the derived geometry only
	ways := c.Capacity()
	return &stampRef{
		assoc: c.assoc, sets: c.numSets, shift: c.blockShift,
		tags: make([]uint64, ways), used: make([]uint64, ways), state: make([]LineState, ways),
	}
}

func (r *stampRef) find(addr uint64) (uint64, uint64, int) {
	block := addr >> r.shift
	si := (block + r.rotation) % r.sets
	base := int(si) * r.assoc
	for j := base; j < base+r.assoc; j++ {
		if r.tags[j] == block && r.state[j] != StateInvalid {
			return block, si, j
		}
	}
	return block, si, -1
}

func (r *stampRef) recordWrite(si uint64, i int) {
	if r.endur == nil {
		return
	}
	if r.endur.RecordWrite(int(si), i-int(si)*r.assoc, 0) {
		r.endur.RetireLoss(r.state[i] == StateDirty)
		r.state[i] = StateInvalid
	}
	if r.endur.RotationDue() {
		wb := r.Clear()
		r.rotation++
		r.endur.Rotated(wb)
	}
}

func (r *stampRef) Access(addr uint64, write bool) AccessResult {
	r.tick++
	_, si, i := r.find(addr)
	if i < 0 {
		return AccessResult{}
	}
	r.used[i] = r.tick
	if write {
		r.state[i] = StateDirty
		r.recordWrite(si, i)
	}
	return AccessResult{Hit: true}
}

func (r *stampRef) FillState(addr uint64, st LineState) AccessResult {
	r.tick++
	block, si, i := r.find(addr)
	if i >= 0 {
		r.state[i] = st
		r.used[i] = r.tick
		r.recordWrite(si, i)
		return AccessResult{Hit: true}
	}
	base := int(si) * r.assoc
	victim := -1
	for j := base; j < base+r.assoc; j++ {
		if r.endur != nil && r.endur.Retired(int(si), j-base) {
			continue
		}
		if r.state[j] == StateInvalid {
			victim = j
			break
		}
		if victim < 0 || r.used[j] < r.used[victim] {
			victim = j
		}
	}
	if victim < 0 {
		return AccessResult{Bypassed: true}
	}
	res := AccessResult{}
	if r.state[victim] != StateInvalid {
		res = AccessResult{Evicted: true, EvictedAddr: r.tags[victim] << r.shift,
			EvictedState: r.state[victim], Writeback: r.state[victim] == StateDirty}
	}
	r.tags[victim], r.state[victim], r.used[victim] = block, st, r.tick
	r.recordWrite(si, victim)
	return res
}

func (r *stampRef) SetState(addr uint64, st LineState) bool {
	if st == StateInvalid {
		return r.Invalidate(addr).Hit
	}
	_, _, i := r.find(addr)
	if i < 0 {
		return false
	}
	r.state[i] = st
	return true
}

func (r *stampRef) Invalidate(addr uint64) AccessResult {
	_, _, i := r.find(addr)
	if i < 0 {
		return AccessResult{}
	}
	dirty := r.state[i] == StateDirty
	r.state[i] = StateInvalid
	return AccessResult{Hit: true, Writeback: dirty}
}

func (r *stampRef) Clear() (writebacks int) {
	for i, st := range r.state {
		if st == StateDirty {
			writebacks++
		}
		r.state[i] = StateInvalid
	}
	return writebacks
}

// lruOp is one operation of an equivalence sequence.
type lruOp struct {
	kind  uint8
	block uint16
	st    LineState
}

// lruOut is everything an op reports to its caller.
type lruOut struct {
	r AccessResult
	n int
}

// applyLRU runs op on the array and on the reference.
func applyLRU(c *Cache, ref *stampRef, op lruOp) (got, want lruOut) {
	addr := uint64(op.block) << c.blockShift
	switch op.kind % 16 {
	case 0, 1, 2, 3, 4:
		write := op.kind%2 == 0
		return lruOut{r: c.Access(addr, write)}, lruOut{r: ref.Access(addr, write)}
	case 5, 6, 7, 8:
		dirty := op.kind%2 == 0
		st := StateValid
		if dirty {
			st = StateDirty
		}
		return lruOut{r: c.Fill(addr, dirty)}, lruOut{r: ref.FillState(addr, st)}
	case 9, 10:
		return lruOut{r: c.FillState(addr, op.st)}, lruOut{r: ref.FillState(addr, op.st)}
	case 11, 12:
		return lruOut{r: c.Invalidate(addr)}, lruOut{r: ref.Invalidate(addr)}
	case 13, 14:
		return lruOut{r: AccessResult{Hit: c.SetState(addr, op.st)}}, lruOut{r: AccessResult{Hit: ref.SetState(addr, op.st)}}
	default:
		return lruOut{n: c.Clear()}, lruOut{n: ref.Clear()}
	}
}

// lruGeometries are the Table I associativities (2-way L1I, 4-way L1D,
// 8-way L2, 16-way L3) over a power-of-two and a 3x2^k set count.
func lruGeometries() []config.CacheParams {
	var ps []config.CacheParams
	for _, assoc := range []int{2, 4, 8, 16} {
		for _, sets := range []int{8, 6} {
			ps = append(ps, config.CacheParams{SizeBytes: sets * assoc * 32, BlockBytes: 32, Assoc: assoc, ReadPorts: 1, WritePorts: 1})
		}
	}
	return ps
}

// lruWear is the endurance model of the wear-on sequences: budgets of
// about 60 writes, so ways retire and sets shrink, and a wear-leveling
// rotation that flushes the array every few hundred writes. It has no
// retention, which the reference does not model.
func lruWear(seed int64) endurance.Params {
	return endurance.Params{Seed: seed, BudgetMean: 60, BudgetSigma: 0.5, WearLevel: true, WearLevelPeriod: 331}
}

// runLRU applies ops to a fresh array and a fresh reference of geometry
// p, restoring the array from its checkpoint record into a fresh array
// after op restoreAt, and fails on the first op whose result, tags or
// states differ. It returns the retirements and rotations seen.
func runLRU(t *testing.T, p config.CacheParams, wear bool, seed int64, ops []lruOp, restoreAt int) (retired, rotations int) {
	t.Helper()
	c, ref := NewCache(p), newStampRef(p)
	var tc, tr *endurance.Tracker
	if wear {
		tc, tr = endurance.NewTracker(lruWear(seed)), endurance.NewTracker(lruWear(seed))
		c.AttachEndurance(tc.NewArray("lru", 0, int(c.numSets), c.assoc))
		ref.endur = tr.NewArray("lru", 0, int(c.numSets), c.assoc)
	}
	for k, op := range ops {
		if got, want := applyLRU(c, ref, op); got != want {
			t.Fatalf("op %d %+v: array reports %+v, stamp reference %+v", k, op, got, want)
		}
		if !slices.Equal(c.tags, ref.tags) || !slices.Equal(c.state, ref.state) {
			t.Fatalf("op %d %+v: tags or states differ from the stamp reference", k, op)
		}
		if k == restoreAt {
			rec, err := c.Snapshot().MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var st CacheState
			if err := st.UnmarshalBinary(rec); err != nil {
				t.Fatal(err)
			}
			fresh := NewCache(p)
			fresh.AttachEndurance(c.Endurance())
			if err := fresh.Restore(st); err != nil {
				t.Fatalf("op %d: restore refused the array's own snapshot: %v", k, err)
			}
			c = fresh
		}
	}
	if wear {
		rep := tc.Report(0)
		if want := tr.Report(0); !reflect.DeepEqual(rep, want) {
			t.Fatalf("endurance reports differ: array %+v, reference %+v", rep, want)
		}
		return rep.RetiredWays, int(rep.Rotations)
	}
	return 0, 0
}

// randomLRUOps draws n ops over a block range three times the array's
// capacity, so sets overflow and evict, weighted toward accesses and
// fills as a real access stream is.
func randomLRUOps(rng *rand.Rand, ways, n int) []lruOp {
	ops := make([]lruOp, n)
	for k := range ops {
		kind := uint8(rng.Intn(15))
		if rng.Intn(200) == 0 {
			kind = 15 // Clear
		}
		ops[k] = lruOp{kind: kind, block: uint16(rng.Intn(3 * ways)), st: LineState(1 + rng.Intn(4))}
	}
	return ops
}

// TestLRUMatchesStampReference: over random Access/Fill/FillState/
// Invalidate/SetState/Clear sequences, with and without endurance
// retirement and wear-leveling rotation, and with a checkpoint record
// and Restore in the middle, the rank-based array reports every result
// and holds every tag and state exactly as the timestamp LRU does.
func TestLRUMatchesStampReference(t *testing.T) {
	for _, p := range lruGeometries() {
		for _, wear := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dway/%dsets/wear=%v", p.Assoc, p.Sets(), wear), func(t *testing.T) {
				var retired, rotations int
				for seed := int64(1); seed <= 8; seed++ {
					rng := rand.New(rand.NewSource(seed))
					ops := randomLRUOps(rng, p.Sets()*p.Assoc, 3000)
					r, rot := runLRU(t, p, wear, seed, ops, rng.Intn(len(ops)))
					retired += r
					rotations += rot
				}
				if wear && (retired == 0 || rotations == 0) {
					t.Fatalf("sequences never retired a way (%d) or rotated (%d)", retired, rotations)
				}
			})
		}
	}
}

// FuzzLRUMatchesStampReference runs fuzzer-chosen op sequences through
// the array and the stamp reference: geo picks the geometry and whether
// wear is modelled, each three bytes of data make one op, and the
// array is restored from its checkpoint record after op restoreAt.
func FuzzLRUMatchesStampReference(f *testing.F) {
	f.Add(uint8(0), []byte{5, 0, 1, 5, 8, 1, 0, 0, 0, 5, 16, 1, 6, 24, 1}, uint16(2), int64(1))
	f.Add(uint8(7), []byte{5, 1, 1, 6, 2, 2, 0, 1, 0, 9, 3, 3, 15, 0, 0, 7, 3, 1}, uint16(4), int64(2))
	f.Add(uint8(9), []byte{0, 0, 0, 8, 0, 0, 2, 0, 0, 4, 0, 0, 6, 0, 0}, uint16(0), int64(3))
	f.Add(uint8(14), []byte{11, 5, 0, 13, 5, 2, 5, 5, 1, 12, 5, 0}, uint16(1), int64(4))
	f.Fuzz(func(t *testing.T, geo uint8, data []byte, restoreAt uint16, seed int64) {
		geos := lruGeometries()
		p := geos[int(geo>>1)%len(geos)]
		ways := p.Sets() * p.Assoc
		ops := make([]lruOp, 0, len(data)/3)
		for k := 0; k+3 <= len(data); k += 3 {
			ops = append(ops, lruOp{
				kind:  data[k],
				block: uint16(int(data[k+1]) % (3 * ways)),
				st:    LineState(1 + data[k+2]%4),
			})
		}
		runLRU(t, p, geo&1 == 1, seed, ops, int(restoreAt))
	})
}
