package cpu

import (
	"math"
	"reflect"
	"testing"

	"respin/internal/config"
	"respin/internal/trace"
)

// mockMem is a scriptable MemSystem.
type mockMem struct {
	acceptLoad, acceptStore, acceptFetch bool
	loads, stores, fetches               []uint64
}

func newMockMem() *mockMem {
	return &mockMem{acceptLoad: true, acceptStore: true, acceptFetch: true}
}

func (m *mockMem) IssueLoad(v int, addr uint64) bool {
	if !m.acceptLoad {
		return false
	}
	m.loads = append(m.loads, addr)
	return true
}

func (m *mockMem) IssueStore(v int, addr uint64) bool {
	if !m.acceptStore {
		return false
	}
	m.stores = append(m.stores, addr)
	return true
}

func (m *mockMem) IssueIFetch(v int, addr uint64) bool {
	if !m.acceptFetch {
		return false
	}
	m.fetches = append(m.fetches, addr)
	return true
}

func newCore(bench string, mem MemSystem) *Core {
	return New(0, trace.NewGen(trace.MustByName(bench), 1, 0, 0), mem)
}

// drive steps the core n cycles, auto-completing loads and fetches after
// the given latencies (in cycles). Returns retired count.
func drive(c *Core, m *mockMem, cycles, loadLat, fetchLat int) uint64 {
	loadDone := -1
	fetchDone := -1
	pendingFetches := 0
	for i := 0; i < cycles; i++ {
		before := len(m.loads)
		beforeF := len(m.fetches)
		c.Step()
		if len(m.loads) > before {
			loadDone = i + loadLat
		}
		pendingFetches += len(m.fetches) - beforeF
		if pendingFetches > 0 && fetchDone < 0 {
			fetchDone = i + fetchLat
		}
		if loadDone >= 0 && i >= loadDone {
			c.CompleteLoad()
			loadDone = -1
		}
		if fetchDone >= 0 && i >= fetchDone {
			c.CompleteIFetch()
			pendingFetches--
			fetchDone = -1
			if pendingFetches > 0 {
				fetchDone = i + fetchLat
			}
		}
		if c.State() == AtBarrier {
			c.ReleaseBarrier()
		}
	}
	return c.Retired()
}

func TestCoreMakesProgress(t *testing.T) {
	m := newMockMem()
	c := newCore("blackscholes", m)
	retired := drive(c, m, 2000, 1, 1)
	if retired == 0 {
		t.Fatal("core retired nothing")
	}
	// Dual issue with high ILP: should approach 1.5+ IPC.
	ipc := float64(retired) / 2000
	if ipc < 0.8 {
		t.Errorf("IPC = %.2f, want > 0.8 for blackscholes with 1-cycle memory", ipc)
	}
	if len(m.loads) == 0 || len(m.stores) == 0 || len(m.fetches) == 0 {
		t.Error("memory traffic missing")
	}
}

func TestLoadBlocksUntilComplete(t *testing.T) {
	m := newMockMem()
	c := newCore("radix", m)
	// Step until a load issues.
	for i := 0; i < 1000 && len(m.loads) == 0; i++ {
		c.Step()
		if c.fetchOutstanding {
			c.CompleteIFetch()
		}
	}
	if len(m.loads) == 0 {
		t.Fatal("no load issued")
	}
	if c.State() != WaitLoad {
		t.Fatalf("state = %v, want wait-load", c.State())
	}
	before := c.Retired()
	for i := 0; i < 10; i++ {
		if n := c.Step(); n != 0 {
			t.Fatal("core issued while blocked on load")
		}
	}
	if c.Stalls() == 0 {
		t.Error("stall cycles not counted")
	}
	c.CompleteLoad()
	if c.State() != Running {
		t.Fatalf("state after completion = %v", c.State())
	}
	drive(c, m, 50, 1, 1)
	if c.Retired() <= before {
		t.Error("no progress after load completion")
	}
}

func TestStoreDoesNotBlock(t *testing.T) {
	m := newMockMem()
	c := newCore("radix", m)
	for i := 0; i < 500; i++ {
		c.Step()
		if c.State() == WaitLoad {
			c.CompleteLoad()
		}
		if c.fetchOutstanding {
			c.CompleteIFetch()
		}
		if c.State() == AtBarrier {
			c.ReleaseBarrier()
		}
		if c.State() == WaitStore {
			t.Fatal("store blocked despite accepting buffer")
		}
	}
	if len(m.stores) == 0 {
		t.Fatal("no stores issued")
	}
}

func TestStoreBufferFullStallsAndRetries(t *testing.T) {
	m := newMockMem()
	c := newCore("radix", m)
	m.acceptStore = false
	// Run until the core wants a store.
	for i := 0; i < 2000 && c.State() != WaitStore; i++ {
		c.Step()
		if c.State() == WaitLoad {
			c.CompleteLoad()
		}
		if c.fetchOutstanding {
			c.CompleteIFetch()
		}
		if c.State() == AtBarrier {
			c.ReleaseBarrier()
		}
	}
	if c.State() != WaitStore {
		t.Fatal("core never entered wait-store")
	}
	stores := len(m.stores)
	c.Step()
	if len(m.stores) != stores {
		t.Fatal("store issued while buffer rejecting")
	}
	m.acceptStore = true
	c.Step()
	if len(m.stores) != stores+1 {
		t.Fatal("store not retried after buffer freed")
	}
	if c.State() == WaitStore {
		t.Fatal("core stuck in wait-store")
	}
}

func TestBarrierParksCore(t *testing.T) {
	m := newMockMem()
	c := newCore("ocean", m) // dense barriers
	for i := 0; i < 100_000 && c.State() != AtBarrier; i++ {
		c.Step()
		if c.State() == WaitLoad {
			c.CompleteLoad()
		}
		if c.fetchOutstanding {
			c.CompleteIFetch()
		}
	}
	if c.State() != AtBarrier {
		t.Fatal("core never reached a barrier")
	}
	r := c.Retired()
	for i := 0; i < 5; i++ {
		if c.Step() != 0 {
			t.Fatal("issued instructions while at barrier")
		}
	}
	if c.Retired() != r {
		t.Fatal("retired while parked")
	}
	c.ReleaseBarrier()
	if c.State() != Running {
		t.Fatal("release failed")
	}
}

func TestFetchStallWhenICachePortBusy(t *testing.T) {
	m := newMockMem()
	c := newCore("blackscholes", m)
	m.acceptFetch = false
	var retired uint64
	for i := 0; i < 200; i++ {
		c.Step()
		if c.State() == WaitLoad {
			c.CompleteLoad()
		}
		if c.State() == AtBarrier {
			c.ReleaseBarrier()
		}
		retired = c.Retired()
	}
	// Without any instruction supply past the first couple of groups,
	// the core must starve quickly.
	if retired > 64 {
		t.Errorf("retired %d instructions with i-fetch disabled, want starvation", retired)
	}
	if c.State() != WaitIFetch {
		t.Errorf("state = %v, want wait-ifetch", c.State())
	}
	// Accepting fetches resumes progress.
	m.acceptFetch = true
	r := drive(c, m, 200, 1, 1)
	if r <= retired {
		t.Error("no progress after enabling fetches")
	}
}

func TestSlowFetchThrottlesIPC(t *testing.T) {
	m1 := newMockMem()
	fast := newCore("blackscholes", m1)
	ipcFast := float64(drive(fast, m1, 3000, 1, 1)) / 3000
	m2 := newMockMem()
	slow := newCore("blackscholes", m2)
	ipcSlow := float64(drive(slow, m2, 3000, 1, 12)) / 3000
	if ipcSlow >= ipcFast {
		t.Errorf("12-cycle fetch IPC %.2f not below 1-cycle fetch IPC %.2f", ipcSlow, ipcFast)
	}
}

func TestLowILPPhaseLowersIPC(t *testing.T) {
	m1 := newMockMem()
	high := newCore("blackscholes", m1) // ILP 0.95 dominant
	m2 := newMockMem()
	low := newCore("streamcluster", m2) // ILP 0.45/0.30
	ipcHigh := float64(drive(high, m1, 5000, 1, 1)) / 5000
	ipcLow := float64(drive(low, m2, 5000, 3, 1)) / 5000
	if ipcLow >= ipcHigh {
		t.Errorf("streamcluster IPC %.2f not below blackscholes %.2f", ipcLow, ipcHigh)
	}
}

func TestColdRestartForcesRefetch(t *testing.T) {
	m := newMockMem()
	c := newCore("fft", m)
	drive(c, m, 300, 1, 1)
	// The cluster drains in-flight operations before migrating.
	if c.fetchOutstanding {
		c.CompleteIFetch()
	}
	if c.State() == WaitLoad {
		c.CompleteLoad()
	}
	if c.State() == AtBarrier {
		c.ReleaseBarrier()
	}
	fetches := len(m.fetches)
	c.ColdRestart()
	c.Step()
	if len(m.fetches) <= fetches {
		t.Error("no refetch after cold restart")
	}
	// ColdRestart with a fetch in flight is a protocol violation.
	m2 := newMockMem()
	c2 := newCore("fft", m2)
	for i := 0; i < 500 && !c2.fetchOutstanding; i++ {
		c2.Step()
		if c2.State() == WaitLoad {
			c2.CompleteLoad()
		}
		if c2.State() == AtBarrier {
			c2.ReleaseBarrier()
		}
	}
	if !c2.fetchOutstanding {
		t.Skip("never observed in-flight fetch")
	}
	defer func() {
		if recover() == nil {
			t.Error("ColdRestart with fetch in flight did not panic")
		}
	}()
	c2.ColdRestart()
}

func TestPanicsOnProtocolMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	m := newMockMem()
	c := newCore("fft", m)
	mustPanic("CompleteLoad while running", func() { c.CompleteLoad() })
	mustPanic("ReleaseBarrier while running", func() { c.ReleaseBarrier() })
	mustPanic("CompleteIFetch with none outstanding", func() { c.CompleteIFetch() })
	mustPanic("nil gen", func() { New(0, nil, m) })
	mustPanic("nil mem", func() { New(0, trace.NewGen(trace.MustByName("fft"), 1, 0, 0), nil) })
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Running: "running", WaitLoad: "wait-load", WaitIFetch: "wait-ifetch",
		WaitStore: "wait-store", AtBarrier: "at-barrier",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if State(9).String() == "" {
		t.Error("unknown state must stringify")
	}
}

func TestRetiredMatchesCounts(t *testing.T) {
	m := newMockMem()
	c := newCore("lu", m)
	drive(c, m, 5000, 2, 1)
	if c.Retired() < c.Loads()+c.Stores() {
		t.Errorf("retired %d < loads %d + stores %d", c.Retired(), c.Loads(), c.Stores())
	}
	if uint64(len(m.loads)) != c.Loads() || uint64(len(m.stores)) != c.Stores() {
		t.Error("issue counts disagree with memory system")
	}
}

// TestCoreRestoreRejectsMalformedState: a state the core can never hold
// is an error from Restore that leaves the core untouched, never a
// misstep on a later cycle; the values at each range's edges restore.
func TestCoreRestoreRejectsMalformedState(t *testing.T) {
	m := newMockMem()
	src := newCore("fft", m)
	drive(src, m, 200, 3, 2)
	valid := src.Snapshot()
	cases := map[string]func(st *CoreState){
		"state below running":         func(st *CoreState) { st.State = -1 },
		"state past at-barrier":       func(st *CoreState) { st.State = AtBarrier + 1 },
		"fetch position negative":     func(st *CoreState) { st.InstrToFetch = -1 },
		"fetch position past a group": func(st *CoreState) { st.InstrToFetch = fetchGroupInstr + 1 },
		"issue credit NaN":            func(st *CoreState) { st.IssueCredit = math.NaN() },
		"issue credit negative":       func(st *CoreState) { st.IssueCredit = -0.5 },
		"issue credit past the width": func(st *CoreState) { st.IssueCredit = config.IssueWidth + 0.5 },
		"issue credit +Inf":           func(st *CoreState) { st.IssueCredit = math.Inf(1) },
		"pending event type unknown":  func(st *CoreState) { st.HavePending, st.Pending.Type = true, trace.Barrier+1 },
		"pending event type negative": func(st *CoreState) { st.HavePending, st.Pending.Type = true, -1 },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			c := newCore("fft", newMockMem())
			before := c.Snapshot()
			st := valid
			corrupt(&st)
			if err := c.Restore(st); err == nil {
				t.Fatal("malformed state restored without an error")
			}
			if !reflect.DeepEqual(c.Snapshot(), before) {
				t.Fatal("refused restore modified the core")
			}
		})
	}
	edges := map[string]func(st *CoreState){
		"at-barrier":          func(st *CoreState) { st.State = AtBarrier },
		"full fetch group":    func(st *CoreState) { st.InstrToFetch = fetchGroupInstr },
		"zero credit":         func(st *CoreState) { st.IssueCredit = 0 },
		"full credit":         func(st *CoreState) { st.IssueCredit = config.IssueWidth },
		"unknown but unarmed": func(st *CoreState) { st.HavePending, st.Pending.Type = false, trace.Barrier+1 },
	}
	for name, edge := range edges {
		st := valid
		edge(&st)
		c := newCore("fft", newMockMem())
		if err := c.Restore(st); err != nil {
			t.Errorf("%s: refused: %v", name, err)
		}
		if !reflect.DeepEqual(c.Snapshot(), st) {
			t.Errorf("%s: restored core snapshots differently", name)
		}
	}
}
