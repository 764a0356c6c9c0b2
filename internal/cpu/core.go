// Package cpu models the timing behaviour of one virtual core (hardware
// thread context) of the near-threshold CMP: a dual-issue core that
// retires non-memory instructions at the workload phase's achievable
// rate, blocks on loads and instruction-fetch misses, buffers stores,
// and parks at barriers.
//
// A Core is a passive state machine advanced by its hosting cluster at
// the physical core's clock edges (Step); the cluster implements the
// MemSystem interface, converts cache events into completion callbacks,
// and — under dynamic core consolidation — may re-host the Core on a
// different physical core at any epoch boundary (the Core carries all
// architectural state with it, mirroring the paper's register-file +
// PC migration).
package cpu

import (
	"fmt"

	"respin/internal/config"
	"respin/internal/trace"
)

// MemSystem is the cluster-side memory interface. Issue methods return
// false when the relevant port or buffer cannot accept the request this
// cycle; the core retries on a later cycle.
type MemSystem interface {
	// IssueLoad starts a blocking data read for the virtual core.
	IssueLoad(vcore int, addr uint64) bool
	// IssueStore enqueues a buffered write.
	IssueStore(vcore int, addr uint64) bool
	// IssueIFetch starts an instruction-block fetch.
	IssueIFetch(vcore int, addr uint64) bool
}

// State is the virtual core's execution state.
type State int

// Core states.
const (
	// Running executes instructions.
	Running State = iota
	// WaitLoad blocks on an outstanding data read.
	WaitLoad
	// WaitIFetch blocks on an instruction fetch that has not returned
	// by the end of the current fetch group.
	WaitIFetch
	// WaitStore retries a store rejected by a full store buffer.
	WaitStore
	// AtBarrier is parked at a global barrier awaiting release.
	AtBarrier
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Running:
		return "running"
	case WaitLoad:
		return "wait-load"
	case WaitIFetch:
		return "wait-ifetch"
	case WaitStore:
		return "wait-store"
	case AtBarrier:
		return "at-barrier"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// fetchGroupInstr is how many instructions one 32-byte fetch block
// supplies.
const fetchGroupInstr = 8

// Core is one virtual core.
type Core struct {
	// ID is the cluster-local virtual core id.
	ID int

	gen *trace.Gen
	mem MemSystem

	state       State
	issueCredit float64

	gap         uint64
	pending     trace.Event
	havePending bool

	instrToFetch     int // instructions issued since last fetch group started
	fetchOutstanding bool
	fetchWanted      bool

	retired    uint64
	stalls     uint64
	loadCount  uint64
	storeCount uint64
}

// New builds a virtual core over a workload generator and memory system.
func New(id int, gen *trace.Gen, mem MemSystem) *Core {
	if gen == nil || mem == nil {
		panic("cpu: nil generator or memory system")
	}
	return &Core{ID: id, gen: gen, mem: mem}
}

// State returns the current execution state.
func (c *Core) State() State { return c.state }

// Retired returns total committed instructions.
func (c *Core) Retired() uint64 { return c.retired }

// Stalls returns the number of core cycles in which no instruction
// issued.
func (c *Core) Stalls() uint64 { return c.stalls }

// Loads and Stores return issued memory-operation counts.
func (c *Core) Loads() uint64  { return c.loadCount }
func (c *Core) Stores() uint64 { return c.storeCount }

// CompleteLoad unblocks a WaitLoad core; the cluster calls it when the
// read response reaches the core.
func (c *Core) CompleteLoad() {
	if c.state != WaitLoad {
		panic(fmt.Sprintf("cpu: CompleteLoad in state %v", c.state))
	}
	c.state = Running
}

// CompleteIFetch marks the outstanding instruction fetch done.
func (c *Core) CompleteIFetch() {
	if !c.fetchOutstanding {
		panic("cpu: CompleteIFetch with no fetch outstanding")
	}
	c.fetchOutstanding = false
	if c.state == WaitIFetch {
		c.state = Running
	}
}

// ReleaseBarrier resumes a core parked at a barrier.
func (c *Core) ReleaseBarrier() {
	if c.state != AtBarrier {
		panic(fmt.Sprintf("cpu: ReleaseBarrier in state %v", c.state))
	}
	c.state = Running
}

// ColdRestart models the loss of pipeline and fetch-ahead state after a
// consolidation migration. The hosting cluster drains outstanding memory
// operations before migrating, so no fetch may be in flight.
func (c *Core) ColdRestart() {
	if c.fetchOutstanding {
		panic("cpu: ColdRestart with fetch in flight")
	}
	c.fetchWanted = true
	c.issueCredit = 0
}

// Step advances the core by one cycle of its hosting physical core. It
// returns the number of instructions retired this cycle.
func (c *Core) Step() int {
	switch c.state {
	case WaitIFetch:
		// The fetch may still be unissued (port was busy); keep
		// retrying until it is accepted, then wait for completion.
		if !c.fetchOutstanding && c.fetchWanted {
			if c.mem.IssueIFetch(c.ID, c.gen.NextFetchAddr()) {
				c.fetchOutstanding = true
				c.fetchWanted = false
			}
		}
		c.stalls++
		return 0
	case WaitLoad, AtBarrier:
		c.stalls++
		return 0
	case WaitStore:
		if !c.mem.IssueStore(c.ID, c.pending.Addr) {
			c.stalls++
			return 0
		}
		c.retired++
		c.storeCount++
		c.havePending = false
		c.state = Running
		c.instrToFetch++
		return c.run(1)
	}
	n := c.run(0)
	if n == 0 {
		c.stalls++
	}
	return n
}

// run issues instructions for the remainder of the cycle; already counts
// instructions the caller has retired this cycle.
func (c *Core) run(alreadyIssued int) int {
	// Pending instruction fetch handling: issue the next group's fetch
	// as soon as the previous one is consumed (fetch-ahead by one).
	if c.fetchWanted && !c.fetchOutstanding {
		if c.mem.IssueIFetch(c.ID, c.gen.NextFetchAddr()) {
			c.fetchOutstanding = true
			c.fetchWanted = false
		}
	}

	c.issueCredit += config.IssueWidth * c.gen.ILP()
	issued := alreadyIssued
	for c.issueCredit >= 1 {
		// Stall when the current fetch group is exhausted and the
		// next block has not arrived.
		if c.instrToFetch >= fetchGroupInstr {
			if c.fetchOutstanding || c.fetchWanted {
				c.state = WaitIFetch
				if !c.fetchOutstanding && c.fetchWanted {
					// Retry issuing the fetch itself.
					if c.mem.IssueIFetch(c.ID, c.gen.NextFetchAddr()) {
						c.fetchOutstanding = true
						c.fetchWanted = false
					}
				}
				break
			}
			c.instrToFetch -= fetchGroupInstr
			c.fetchWanted = true
			if c.mem.IssueIFetch(c.ID, c.gen.NextFetchAddr()) {
				c.fetchOutstanding = true
				c.fetchWanted = false
			}
			continue
		}

		if !c.havePending && c.gap == 0 {
			c.pending = c.gen.Next()
			c.gap = c.pending.Gap
			c.havePending = true
		}

		if c.gap > 0 {
			// Retire plain instructions.
			n := uint64(c.issueCredit)
			if n > c.gap {
				n = c.gap
			}
			budgetLeft := fetchGroupInstr - c.instrToFetch
			if n > uint64(budgetLeft) {
				n = uint64(budgetLeft)
			}
			c.gap -= n
			c.retired += n
			issued += int(n)
			c.instrToFetch += int(n)
			c.issueCredit -= float64(n)
			continue
		}

		// Dispatch the pending event.
		switch c.pending.Type {
		case trace.Load:
			if !c.mem.IssueLoad(c.ID, c.pending.Addr) {
				// Port busy: retry next cycle.
				c.issueCredit = 0
				return issued
			}
			c.retired++
			c.loadCount++
			issued++
			c.instrToFetch++
			c.havePending = false
			c.state = WaitLoad
			c.issueCredit = 0
			return issued
		case trace.Store:
			if !c.mem.IssueStore(c.ID, c.pending.Addr) {
				c.state = WaitStore
				c.issueCredit = 0
				return issued
			}
			c.retired++
			c.storeCount++
			issued++
			c.instrToFetch++
			c.havePending = false
			c.issueCredit--
		case trace.Barrier:
			c.havePending = false
			c.state = AtBarrier
			c.issueCredit = 0
			return issued
		}
	}
	if c.issueCredit > config.IssueWidth {
		c.issueCredit = config.IssueWidth
	}
	return issued
}

// FetchInFlight reports whether an instruction fetch is outstanding.
func (c *Core) FetchInFlight() bool { return c.fetchOutstanding }

// CoreState is the core's full architectural + microarchitectural state,
// for checkpointing. The workload generator's position travels with it
// (the generator is the core's program counter, in effect).
type CoreState struct {
	State       State
	IssueCredit float64

	Gap         uint64
	Pending     trace.Event
	HavePending bool

	InstrToFetch     int
	FetchOutstanding bool
	FetchWanted      bool

	Retired    uint64
	Stalls     uint64
	LoadCount  uint64
	StoreCount uint64

	Gen trace.GenState
}

// Snapshot captures the core's state.
func (c *Core) Snapshot() CoreState {
	return CoreState{
		State:            c.state,
		IssueCredit:      c.issueCredit,
		Gap:              c.gap,
		Pending:          c.pending,
		HavePending:      c.havePending,
		InstrToFetch:     c.instrToFetch,
		FetchOutstanding: c.fetchOutstanding,
		FetchWanted:      c.fetchWanted,
		Retired:          c.retired,
		Stalls:           c.stalls,
		LoadCount:        c.loadCount,
		StoreCount:       c.storeCount,
		Gen:              c.gen.State(),
	}
}

// check refuses values the core can never hold. The checkpoint checksum
// proves only that the bytes are the ones written, so a state that
// would make Step misbehave (an unknown state or event, a fetch group
// overrun, a NaN or out-of-range issue credit) must be refused here.
func (st *CoreState) check() error {
	switch {
	case st.State < Running || st.State > AtBarrier:
		return fmt.Errorf("cpu: restore state %v is unknown", st.State)
	case st.InstrToFetch < 0 || st.InstrToFetch > fetchGroupInstr:
		return fmt.Errorf("cpu: restore fetch-group position %d outside [0, %d]", st.InstrToFetch, fetchGroupInstr)
	case !(st.IssueCredit >= 0 && st.IssueCredit <= config.IssueWidth): // NaN fails both
		return fmt.Errorf("cpu: restore issue credit %v outside [0, %d]", st.IssueCredit, config.IssueWidth)
	case st.HavePending && (st.Pending.Type < trace.Load || st.Pending.Type > trace.Barrier):
		return fmt.Errorf("cpu: restore pending event type %v is unknown", st.Pending.Type)
	}
	return nil
}

// Restore repositions a freshly built core (same generator inputs) to a
// captured state. A state the core can never hold is an error and
// leaves the core untouched.
func (c *Core) Restore(st CoreState) error {
	if err := st.check(); err != nil {
		return err
	}
	c.state = st.State
	c.issueCredit = st.IssueCredit
	c.gap = st.Gap
	c.pending = st.Pending
	c.havePending = st.HavePending
	c.instrToFetch = st.InstrToFetch
	c.fetchOutstanding = st.FetchOutstanding
	c.fetchWanted = st.FetchWanted
	c.retired = st.Retired
	c.stalls = st.Stalls
	c.loadCount = st.LoadCount
	c.storeCount = st.StoreCount
	c.gen.Restore(st.Gen)
	return nil
}

// SkipStalls accounts n clock edges of a fast-forwarded idle window as
// stall cycles. The hosting cluster may only use it while the core is
// blocked on an outstanding memory operation, where Step would do
// nothing but count the stall.
func (c *Core) SkipStalls(n uint64) {
	if c.state != WaitLoad && c.state != WaitIFetch {
		panic(fmt.Sprintf("cpu: SkipStalls in state %v", c.state))
	}
	c.stalls += n
}
