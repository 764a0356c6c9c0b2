package config

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCacheParamsSets(t *testing.T) {
	p := CacheParams{SizeBytes: 256 * kb, BlockBytes: 32, Assoc: 4, ReadPorts: 1, WritePorts: 1}
	if got := p.Sets(); got != 2048 {
		t.Errorf("Sets() = %d, want 2048", got)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate() = %v, want nil", err)
	}
}

func TestCacheParamsValidateRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		name string
		p    CacheParams
	}{
		{"zero size", CacheParams{BlockBytes: 32, Assoc: 2, ReadPorts: 1, WritePorts: 1}},
		{"zero block", CacheParams{SizeBytes: 1024, Assoc: 2, ReadPorts: 1, WritePorts: 1}},
		{"zero assoc", CacheParams{SizeBytes: 1024, BlockBytes: 32, ReadPorts: 1, WritePorts: 1}},
		{"assoc above a rank byte", CacheParams{SizeBytes: 256 * 32, BlockBytes: 32, Assoc: 256, ReadPorts: 1, WritePorts: 1}},
		{"indivisible", CacheParams{SizeBytes: 1000, BlockBytes: 32, Assoc: 2, ReadPorts: 1, WritePorts: 1}},
		{"no ports", CacheParams{SizeBytes: 1024, BlockBytes: 32, Assoc: 2}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", c.name)
		}
	}
	if err := (CacheParams{SizeBytes: 255 * 32, BlockBytes: 32, Assoc: 255, ReadPorts: 1, WritePorts: 1}).Validate(); err != nil {
		t.Errorf("255-way geometry refused: %v", err)
	}
}

func TestNewHierarchyTableI(t *testing.T) {
	h := NewHierarchy(Medium, SharedL1, 16)
	if h.L1I.SizeBytes != 256*kb || h.L1D.SizeBytes != 256*kb {
		t.Errorf("shared L1 sizes = %d/%d, want 256KB", h.L1I.SizeBytes, h.L1D.SizeBytes)
	}
	if h.L1I.Assoc != 2 || h.L1D.Assoc != 4 {
		t.Errorf("L1 associativities = %d/%d, want 2/4", h.L1I.Assoc, h.L1D.Assoc)
	}
	if h.L1I.BlockBytes != 32 || h.L1D.BlockBytes != 32 {
		t.Errorf("L1 block sizes = %d/%d, want 32", h.L1I.BlockBytes, h.L1D.BlockBytes)
	}
	if h.L2.SizeBytes != 16*mb || h.L2.BlockBytes != 64 || h.L2.Assoc != 8 {
		t.Errorf("L2 = %+v, want 16MB/64B/8-way", h.L2)
	}
	if h.L3.SizeBytes != 48*mb || h.L3.BlockBytes != 128 || h.L3.Assoc != 16 {
		t.Errorf("L3 = %+v, want 48MB/128B/16-way", h.L3)
	}

	hp := NewHierarchy(Medium, PrivateL1, 16)
	if hp.L1I.SizeBytes != 16*kb || hp.L1D.SizeBytes != 16*kb {
		t.Errorf("private L1 sizes = %d/%d, want 16KB", hp.L1I.SizeBytes, hp.L1D.SizeBytes)
	}

	hs := NewHierarchy(Small, SharedL1, 16)
	if hs.L2.SizeBytes != 8*mb || hs.L3.SizeBytes != 24*mb {
		t.Errorf("small L2/L3 = %d/%d, want 8MB/24MB", hs.L2.SizeBytes, hs.L3.SizeBytes)
	}
	hl := NewHierarchy(Large, SharedL1, 16)
	if hl.L2.SizeBytes != 32*mb || hl.L3.SizeBytes != 96*mb {
		t.Errorf("large L2/L3 = %d/%d, want 32MB/96MB", hl.L2.SizeBytes, hl.L3.SizeBytes)
	}
}

func TestSharedL1ScalesWithClusterSize(t *testing.T) {
	// Section V.D: 512 KB shared L1 for 32-core clusters, 256 KB for 16.
	for _, c := range []struct{ cluster, want int }{
		{4, 64 * kb}, {8, 128 * kb}, {16, 256 * kb}, {32, 512 * kb},
	} {
		h := NewHierarchy(Medium, SharedL1, c.cluster)
		if h.L1D.SizeBytes != c.want {
			t.Errorf("cluster %d: shared L1D = %d, want %d", c.cluster, h.L1D.SizeBytes, c.want)
		}
	}
}

func TestAllHierarchiesValidate(t *testing.T) {
	for _, scale := range []CacheScale{Small, Medium, Large} {
		for _, org := range []L1Org{PrivateL1, SharedL1} {
			for _, cs := range []int{4, 8, 16, 32} {
				h := NewHierarchy(scale, org, cs)
				for _, p := range []CacheParams{h.L1I, h.L1D, h.L2, h.L3} {
					if err := p.Validate(); err != nil {
						t.Errorf("%v/%v/%d: %v", scale, org, cs, err)
					}
				}
			}
		}
	}
}

func TestTableIVPresets(t *testing.T) {
	cases := []struct {
		kind  ArchKind
		tech  MemTech
		org   L1Org
		cVdd  float64
		coVdd float64
		mode  ConsolidationMode
		nom   bool
	}{
		{PRSRAMNT, SRAM, PrivateL1, SRAMSafeVdd, CoreNTVdd, NoConsolidation, false},
		{HPSRAMCMP, SRAM, PrivateL1, NominalVdd, NominalVdd, NoConsolidation, true},
		{SHSRAMNom, SRAM, SharedL1, NominalVdd, CoreNTVdd, NoConsolidation, false},
		{SHSTT, STTRAM, SharedL1, NominalVdd, CoreNTVdd, NoConsolidation, false},
		{SHSTTCC, STTRAM, SharedL1, NominalVdd, CoreNTVdd, GreedyConsolidation, false},
		{SHSTTCCOracle, STTRAM, SharedL1, NominalVdd, CoreNTVdd, OracleConsolidation, false},
		{PRSTTCC, STTRAM, PrivateL1, NominalVdd, CoreNTVdd, GreedyConsolidation, false},
		{SHSTTCCOS, STTRAM, SharedL1, NominalVdd, CoreNTVdd, OSConsolidation, false},
	}
	if len(cases) != len(AllArchKinds) {
		t.Fatalf("AllArchKinds has %d configurations, Table IV has %d", len(AllArchKinds), len(cases))
	}
	for _, c := range cases {
		cfg := New(c.kind, Medium)
		if cfg.Kind != c.kind || cfg.Scale != Medium || cfg.ClusterSize != 16 {
			t.Errorf("%v: New(kind, Medium) = %v/%v cl%d, want the 16-core medium default",
				c.kind, cfg.Kind, cfg.Scale, cfg.ClusterSize)
		}
		if cfg.Tech != c.tech || cfg.L1 != c.org || cfg.CacheVdd != c.cVdd ||
			cfg.CoreVdd != c.coVdd || cfg.Consolidation != c.mode || cfg.NominalCores != c.nom {
			t.Errorf("%v: got %+v", c.kind, cfg)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: Validate() = %v", c.kind, err)
		}
	}
}

func TestConfigValidateRejects(t *testing.T) {
	c := New(SHSTT, Medium)
	c.ClusterSize = 7
	if err := c.Validate(); err == nil {
		t.Error("indivisible cluster size accepted")
	}
	c = New(SHSTT, Medium)
	c.CoreVdd = 0.1
	if err := c.Validate(); err == nil {
		t.Error("sub-threshold core Vdd accepted")
	}
	c = New(SHSTT, Medium)
	c.CacheVdd = 0.2
	if err := c.Validate(); err == nil {
		t.Error("cache rail below core rail accepted")
	}
	c = New(SHSTT, Medium)
	c.NumCores = 0
	if err := c.Validate(); err == nil {
		t.Error("zero cores accepted")
	}
	c = New(SHSRAMNom, Medium)
	c.Consolidation = GreedyConsolidation
	c.L1 = PrivateL1
	if err := c.Validate(); err == nil {
		t.Error("private-L1 consolidation accepted outside PR-STT-CC")
	}
}

func TestConsolidationParamsValidate(t *testing.T) {
	p := DefaultConsolidationParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	if p.EpochInstructions != 80_000 {
		t.Errorf("epoch = %d, want 80000 (the paper's 160K scaled to our workload length)", p.EpochInstructions)
	}
	bad := p
	bad.EpochInstructions = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero epoch accepted")
	}
	bad = p
	bad.MinActiveCores = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero min active cores accepted")
	}
	bad = p
	bad.BackoffEpochs = []int{2, 0}
	if err := bad.Validate(); err == nil {
		t.Error("non-positive backoff accepted")
	}
	bad = p
	bad.EPIThreshold = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative threshold accepted")
	}
	bad = p
	bad.HWSwitchIntervalInstr = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero HW switch interval accepted")
	}
	bad = p
	bad.OSIntervalPS = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero OS interval accepted")
	}
}

func TestCorePeriodPS(t *testing.T) {
	c := New(SHSTT, Medium)
	if got := c.CorePeriodPS(4); got != 1600 {
		t.Errorf("multiple 4 -> %d ps, want 1600", got)
	}
	if got := c.CorePeriodPS(6); got != 2400 {
		t.Errorf("multiple 6 -> %d ps, want 2400", got)
	}
	hp := New(HPSRAMCMP, Medium)
	if got := hp.CorePeriodPS(5); got != CachePeriodPS {
		t.Errorf("nominal cores -> %d ps, want %d", got, CachePeriodPS)
	}
}

func TestStringers(t *testing.T) {
	for _, k := range AllArchKinds {
		if s := k.String(); strings.Contains(s, "ArchKind(") {
			t.Errorf("missing String for %d", int(k))
		}
		if d := k.Description(); d == "unknown configuration" {
			t.Errorf("missing Description for %v", k)
		}
	}
	if SRAM.String() != "SRAM" || STTRAM.String() != "STT-RAM" {
		t.Error("MemTech strings wrong")
	}
	if PrivateL1.String() != "private" || SharedL1.String() != "shared" {
		t.Error("L1Org strings wrong")
	}
	if Small.String() != "small" || Medium.String() != "medium" || Large.String() != "large" {
		t.Error("CacheScale strings wrong")
	}
	for _, m := range []ConsolidationMode{NoConsolidation, GreedyConsolidation, OracleConsolidation, OSConsolidation} {
		if s := m.String(); strings.Contains(s, "ConsolidationMode(") {
			t.Errorf("missing String for mode %d", int(m))
		}
	}
	if MemTech(99).String() == "" || CacheScale(99).String() == "" ||
		ConsolidationMode(99).String() == "" || ArchKind(99).String() == "" {
		t.Error("fallback Strings must be non-empty")
	}
	if ArchKind(99).Description() != "unknown configuration" {
		t.Error("unknown kind should describe itself as unknown")
	}
}

func TestNumClusters(t *testing.T) {
	for _, cs := range []int{4, 8, 16, 32} {
		c := NewWithCluster(SHSTT, Medium, cs)
		if got := c.NumClusters(); got != NumCores/cs {
			t.Errorf("cluster %d: NumClusters = %d, want %d", cs, got, NumCores/cs)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("cluster %d: %v", cs, err)
		}
	}
}

func TestCorePeriodMultiplesCoverPaperRange(t *testing.T) {
	// The paper's NT core periods are 1.6-2.4 ns in 0.4 ns steps.
	c := New(SHSTT, Medium)
	seen := map[int64]bool{}
	for m := MinCoreMultiple; m <= MaxCoreMultiple; m++ {
		seen[c.CorePeriodPS(m)] = true
	}
	for _, want := range []int64{1600, 2000, 2400} {
		if !seen[want] {
			t.Errorf("period %d ps not reachable", want)
		}
	}
}

func TestHierarchyGeometryProperty(t *testing.T) {
	// Any power-of-two cluster size in range yields valid geometry.
	f := func(raw uint8) bool {
		cs := []int{4, 8, 16, 32}[int(raw)%4]
		h := NewHierarchy(Medium, SharedL1, cs)
		return h.L1D.Validate() == nil && h.L1I.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
