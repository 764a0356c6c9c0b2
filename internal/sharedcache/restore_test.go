package sharedcache

import (
	"reflect"
	"strings"
	"testing"

	"respin/internal/config"
)

// busyState returns a 4-core controller's state holding every kind of
// occupied slot: reads of cores 0 and 1 active, a store of core 2 and a
// fill in the write queue, and a read and a store of core 3 in transit.
func busyState(t *testing.T) ControllerState {
	t.Helper()
	c := New(4, WithSeed(3))
	for _, r := range []Request{
		{Core: 0, Multiple: 6}, {Core: 1, Multiple: 4},
		{Core: 2, Write: true, Multiple: 5}, {Core: FillCore, Write: true},
	} {
		if !c.Submit(r) {
			t.Fatalf("submit %+v refused", r)
		}
	}
	runTicks(c, config.RequestTransitCacheCycles)
	for _, r := range []Request{{Core: 3, Multiple: 5}, {Core: 3, Write: true, Multiple: 5}} {
		if !c.Submit(r) {
			t.Fatalf("submit %+v refused", r)
		}
	}
	st := c.State()
	if st.ActiveReads != 2 || len(st.WriteQueue) != 2 || st.PendingN != 2 {
		t.Fatalf("state holds %d active reads, %d queued writes, %d in transit; want 2 of each",
			st.ActiveReads, len(st.WriteQueue), st.PendingN)
	}
	return st
}

// inTransit returns the state's in-transit requests: core 3's read, then
// its store.
func inTransit(st *ControllerState) []SlotState {
	for _, ring := range st.PendingRing {
		if len(ring) > 0 {
			return ring
		}
	}
	return nil
}

// TestControllerRestoreRejectsMalformedState: Restore refuses, with an
// error, every state that would panic or corrupt a later Tick, Submit
// or store release, and a refused state leaves the controller as it
// was. The unmodified state round-trips.
func TestControllerRestoreRejectsMalformedState(t *testing.T) {
	t.Run("round trip", func(t *testing.T) {
		st := busyState(t)
		c := New(4, WithSeed(3))
		if err := c.Restore(st); err != nil {
			t.Fatal(err)
		}
		if got := c.State(); !reflect.DeepEqual(got, st) {
			t.Fatalf("restored state differs:\n%+v\nwant\n%+v", got, st)
		}
	})
	cases := []struct {
		name   string
		mutate func(st *ControllerState)
		want   string
	}{
		{"nil arrivals histogram", func(st *ControllerState) { st.Stats.ArrivalsPerCycle = nil }, "missing a histogram"},
		{"nil read-cycles histogram", func(st *ControllerState) { st.Stats.ReadCoreCycles = nil }, "missing a histogram"},
		{"read slots length", func(st *ControllerState) { st.ReadSlots = st.ReadSlots[:3] }, "3 read slots"},
		{"ring length", func(st *ControllerState) { st.PendingRing = st.PendingRing[:2] }, "ring length 2"},
		{"store counts length", func(st *ControllerState) { st.StoreCount = st.StoreCount[:3] }, "3 store counts"},
		{"read busy length", func(st *ControllerState) { st.ReadBusy = append(st.ReadBusy, false) }, "5 read-busy flags"},
		{"negative store count", func(st *ControllerState) { st.StoreCount[0] = -1 }, "-1 stores buffered"},
		{"store count over depth", func(st *ControllerState) { st.StoreCount[2] = 5 }, "5 stores buffered"},
		{"read slot core", func(st *ControllerState) { st.ReadSlots[1].Req.Core = 0 }, "read slot 1 holds"},
		{"write in read slot", func(st *ControllerState) { st.ReadSlots[0].Req.Write = true }, "read slot 0 holds"},
		{"mask bit at core count", func(st *ControllerState) { st.ActiveMask |= 1 << 4 }, "at or above core 4"},
		{"mask bit clear on active slot", func(st *ControllerState) { st.ActiveMask &^= 1 }, "disagrees with read slot 0"},
		{"mask bit set on idle slot", func(st *ControllerState) { st.ActiveMask |= 1 << 2 }, "disagrees with read slot 2"},
		{"active reads", func(st *ControllerState) { st.ActiveReads = 3 }, "3 active reads"},
		{"pending count", func(st *ControllerState) { st.PendingN = 1 }, "1 requests in transit"},
		{"ring core", func(st *ControllerState) { inTransit(st)[0].Req.Core = 4 }, "from core 4 of 4"},
		{"ring read fill", func(st *ControllerState) { inTransit(st)[0].Req.Core = FillCore }, "fill that is not a write"},
		{"inactive ring entry", func(st *ControllerState) { inTransit(st)[1].Active = false }, "inactive queued request"},
		{"write queue core", func(st *ControllerState) { st.WriteQueue[0].Req.Core = -2 }, "from core -2 of 4"},
		{"read in write queue", func(st *ControllerState) { st.WriteQueue[0].Req.Write = false }, "write queue holds a read"},
		{"empty priority register", func(st *ControllerState) { st.ReadSlots[0].Remaining = 0 }, "priority register 0"},
		{"priority register too wide", func(st *ControllerState) { st.WriteQueue[0].Remaining = 5 }, "priority register 5"},
		{"ring priority register", func(st *ControllerState) { inTransit(st)[1].Remaining = -1 }, "priority register -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := busyState(t)
			tc.mutate(&st)
			c := New(4, WithSeed(3))
			c.Submit(Request{Core: 1, Write: true, Multiple: 4})
			before := c.State()
			if err := c.Restore(st); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore error %v, want one containing %q", err, tc.want)
			}
			if after := c.State(); !reflect.DeepEqual(after, before) {
				t.Fatal("a refused restore changed the controller")
			}
		})
	}
}
