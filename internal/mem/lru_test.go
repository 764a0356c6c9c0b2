package mem

import (
	"fmt"
	"math/rand"
	"reflect"
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

// wayAt returns the columns of the way at global index i (set*assoc+way)
// as the flat layout would hold them: the pool entry when the way lies
// in its set's block, all zeros otherwise.
func (c *Cache) wayAt(i int) (tag uint64, st LineState, age uint8, written uint64) {
	off, n := c.block(uint64(i / c.assoc))
	way := i % c.assoc
	if way >= n {
		return 0, StateInvalid, 0, 0
	}
	p := off + way
	if c.written != nil {
		written = c.written[p]
	}
	return c.tags[p], c.state[p], c.age[p], written
}

// sameTagsAndStates reports whether every way of c holds the tag and
// state the stamp reference holds.
func sameTagsAndStates(c *Cache, ref *stampRef) bool {
	for i := range ref.tags {
		if tag, st, _, _ := c.wayAt(i); tag != ref.tags[i] || st != ref.state[i] {
			return false
		}
	}
	return true
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
		if !sameTagsAndStates(c, ref) {
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

// poolSeq is one op sequence aimed at the pooled layout, in the fuzz
// target's encoding: geo picks the geometry and wear, three bytes per
// op, and the array restores from its record after op restoreAt.
type poolSeq struct {
	name      string
	geo       uint8
	data      []byte
	restoreAt uint16
}

// poolSeqs are the pooled layout's edge cases, on 8-set geometries,
// where block b maps to set b%8:
//   - grow: one set of the 16-way geometry fills through block
//     capacities 1, 2, 4, 8 and 16, then evicts;
//   - refill: a 4-way set of three lines loses its middle line, and the
//     refill must take that way, not the block's free fourth one;
//   - retire: an 8-way set's third way, in a grown block, is written
//     until it retires, and the writes go on to rotate the array.
func poolSeqs() []poolSeq {
	var grow []byte
	for k := range 17 {
		grow = append(grow, 5, byte(8*k), 1)
	}
	grow = append(grow, 1, 0, 0, 1, 8, 0)
	refill := []byte{5, 0, 1, 5, 8, 1, 5, 16, 1, 11, 8, 0, 5, 24, 1, 1, 24, 0, 5, 32, 1, 5, 40, 1, 1, 16, 0}
	retire := []byte{5, 0, 1, 5, 8, 1, 5, 16, 1}
	for range 200 {
		retire = append(retire, 0, 16, 0, 6, 16, 2)
	}
	return []poolSeq{
		{"grow", 12, grow, 9},
		{"refill", 4, refill, 3},
		{"retire", 9, retire, 250},
	}
}

// opsOf decodes the fuzz target's op bytes for the ways of p.
func opsOf(p config.CacheParams, data []byte) []lruOp {
	ways := p.Sets() * p.Assoc
	ops := make([]lruOp, 0, len(data)/3)
	for k := 0; k+3 <= len(data); k += 3 {
		ops = append(ops, lruOp{
			kind:  data[k],
			block: uint16(int(data[k+1]) % (3 * ways)),
			st:    LineState(1 + data[k+2]%4),
		})
	}
	return ops
}

// TestLRUPoolSeqs runs the pooled layout's edge cases against the stamp
// reference; the retirement sequence must retire a way and rotate.
func TestLRUPoolSeqs(t *testing.T) {
	geos := lruGeometries()
	for _, sq := range poolSeqs() {
		t.Run(sq.name, func(t *testing.T) {
			p := geos[int(sq.geo>>1)%len(geos)]
			retired, rotations := runLRU(t, p, sq.geo&1 == 1, 1, opsOf(p, sq.data), int(sq.restoreAt))
			if sq.geo&1 == 1 && (retired == 0 || rotations == 0) {
				t.Fatalf("the sequence retired %d ways and rotated %d times, want both", retired, rotations)
			}
		})
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
	for _, sq := range poolSeqs() {
		f.Add(sq.geo, sq.data, sq.restoreAt, int64(1))
	}
	f.Fuzz(func(t *testing.T, geo uint8, data []byte, restoreAt uint16, seed int64) {
		geos := lruGeometries()
		p := geos[int(geo>>1)%len(geos)]
		runLRU(t, p, geo&1 == 1, seed, opsOf(p, data), int(restoreAt))
	})
}
