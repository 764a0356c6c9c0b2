package cluster

import (
	"math"
	"testing"

	"respin/internal/config"
	"respin/internal/cpu"
)

// TestRestoreRejectsMalformedState: a well-formed State whose pointers
// are missing or whose indices point past the cluster is an error from
// Restore, never a panic there or on a later tick.
func TestRestoreRejectsMalformedState(t *testing.T) {
	cases := []struct {
		name    string
		kind    config.ArchKind
		corrupt func(st *State)
	}{
		{"nil CtrlD", config.SHSTT, func(st *State) { st.CtrlD = nil }},
		{"nil SharedL1I", config.SHSTT, func(st *State) { st.SharedL1I = nil }},
		{"nil SharedL1D", config.SHSTT, func(st *State) { st.SharedL1D = nil }},
		{"nil load-latency histogram", config.SHSTT, func(st *State) { st.Stats.LoadLatency = nil }},
		{"resident past the vcores", config.SHSTT, func(st *State) { st.PCores[0].Residents = []int{len(st.VCores)} }},
		{"negative resident", config.SHSTT, func(st *State) { st.PCores[0].Residents = []int{-1} }},
		{"round-robin index past the residents", config.SHSTT, func(st *State) { st.PCores[0].RRIndex = len(st.PCores[0].Residents) }},
		{"vcore on a missing pcore", config.SHSTT, func(st *State) { st.VCores[0].PCore = len(st.PCores) }},
		{"vcore core in an unknown state", config.SHSTT, func(st *State) { st.VCores[0].Core.State = cpu.AtBarrier + 1 }},
		{"vcore core with a NaN issue credit", config.PRSRAMNT, func(st *State) { st.VCores[1].Core.IssueCredit = math.NaN() }},
		{"directory owner past the caches", config.PRSRAMNT, func(st *State) { st.Dir.Entries[0].Owner = int8(len(st.Dir.Caches)) }},
		{"directory owner below -1", config.PRSRAMNT, func(st *State) { st.Dir.Entries[0].Owner = -2 }},
		{"directory sharer past the caches", config.PRSRAMNT, func(st *State) { st.Dir.Entries[0].Sharers = 1 << uint(len(st.Dir.Caches)) }},
	}
	snapshot := func(kind config.ArchKind) State {
		cl, _ := buildCluster(t, kind, "fft", 2_000)
		for i := 0; i < 500; i++ {
			cl.Tick()
		}
		st, err := cl.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, kind := range []config.ArchKind{config.SHSTT, config.PRSRAMNT} {
		fresh, _ := buildCluster(t, kind, "fft", 2_000)
		if err := fresh.Restore(snapshot(kind)); err != nil {
			t.Fatalf("%v: an intact snapshot does not restore: %v", kind, err)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := snapshot(c.kind)
			if c.kind == config.PRSRAMNT && len(st.Dir.Entries) == 0 {
				t.Fatal("no directory entries to corrupt; tick longer")
			}
			c.corrupt(&st)
			fresh, _ := buildCluster(t, c.kind, "fft", 2_000)
			if err := fresh.Restore(st); err == nil {
				t.Fatal("malformed state restored without an error")
			}
		})
	}
}
