// Package config defines the architecture configurations evaluated in the
// Respin paper: the cache hierarchy presets of Table I, the system
// configurations of Table IV, the dual-rail voltage operating points, and
// the clocking scheme that ties near-threshold cores to the fast shared
// cache (integer clock multiples of a 0.4 ns reference).
//
// All times are expressed in integer picoseconds, all capacities in bytes.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
)

// Fundamental chip constants used across the evaluation (Section IV).
const (
	// NumCores is the total number of cores on the modeled CMP.
	NumCores = 64

	// CachePeriodPS is the shared-cache reference clock period: 0.4 ns,
	// i.e. 2.5 GHz, chosen to match the STT-RAM read latency.
	CachePeriodPS = 400

	// LevelShifterDelayPS is the up-shift delay through the voltage level
	// shifters between the NT core rail and the nominal cache rail.
	LevelShifterDelayPS = 750

	// RequestTransitCacheCycles is the number of fast cache cycles a
	// request spends in wires and level shifters before it can be
	// serviced (Section II.A: "Each core's request takes 2 fast cache
	// cycles (0.8ns) to arrive at the cache").
	RequestTransitCacheCycles = 2

	// MinCoreMultiple and MaxCoreMultiple bound the NT core clock
	// periods as integer multiples of the cache clock: 4x..6x gives the
	// paper's 1.6 ns..2.4 ns range (625 MHz..417 MHz).
	MinCoreMultiple = 4
	MaxCoreMultiple = 6

	// IssueWidth is the dual-issue width of each out-of-order core.
	IssueWidth = 2
)

// Voltage operating points (volts) for the dual-rail design.
const (
	// NominalVdd powers the STT-RAM cache rail and the HP baseline.
	NominalVdd = 1.0
	// CoreNTVdd is the near-threshold core supply.
	CoreNTVdd = 0.40
	// SRAMSafeVdd is the reduced-but-safe SRAM rail used by the
	// PR-SRAM-NT baseline (SRAM below this is unusable without heavy
	// error correction).
	SRAMSafeVdd = 0.65
	// Vth is the nominal transistor threshold voltage assumed by the
	// variation model.
	Vth = 0.32
)

// MemTech identifies the memory technology a cache is built from.
type MemTech int

const (
	// SRAM is a conventional 6T SRAM array.
	SRAM MemTech = iota
	// STTRAM is a spin-transfer-torque MRAM array (1T-1MTJ).
	STTRAM
)

// String returns the technology name.
func (t MemTech) String() string {
	switch t {
	case SRAM:
		return "SRAM"
	case STTRAM:
		return "STT-RAM"
	default:
		return fmt.Sprintf("MemTech(%d)", int(t))
	}
}

// MarshalJSON encodes the technology as its name.
func (t MemTech) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }

// CacheScale selects one of the three evaluated hierarchy sizes
// (Section IV: roughly 1, 2 and 4 MB of total cache per core).
type CacheScale int

const (
	// Small provides ~1 MB of cache per core.
	Small CacheScale = iota
	// Medium provides ~2 MB per core (~25% of chip area; the default).
	Medium
	// Large provides ~4 MB per core (~50% of chip area).
	Large
)

// String returns the scale name.
func (s CacheScale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	default:
		return fmt.Sprintf("CacheScale(%d)", int(s))
	}
}

// MarshalJSON encodes the scale as its name.
func (s CacheScale) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// AllScales lists the evaluated hierarchy sizes in ascending order.
var AllScales = []CacheScale{Small, Medium, Large}

// ScaleByName resolves a scale name (as printed by String,
// case-insensitive). The empty name selects Medium, the default the
// tools and the paper's headline figures use. Unknown names error
// listing every valid value.
func ScaleByName(name string) (CacheScale, error) {
	if name == "" {
		return Medium, nil
	}
	for _, s := range AllScales {
		if strings.EqualFold(s.String(), name) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("config: unknown scale %q (valid: %s)", name, scaleNames())
}

func scaleNames() string {
	names := make([]string, len(AllScales))
	for i, s := range AllScales {
		names[i] = s.String()
	}
	return strings.Join(names, ", ")
}

// L1Org selects private per-core L1s (with intra-cluster coherence) or a
// single time-multiplexed L1 shared by the whole cluster.
type L1Org int

const (
	// PrivateL1 gives each core its own L1I/L1D kept coherent by a
	// cluster-level MESI directory.
	PrivateL1 L1Org = iota
	// SharedL1 gives each cluster single L1I/L1D caches shared by all
	// its cores through the time-multiplexing controller.
	SharedL1
)

// String returns the organisation name.
func (o L1Org) String() string {
	if o == PrivateL1 {
		return "private"
	}
	return "shared"
}

// MarshalJSON encodes the organisation as its name.
func (o L1Org) MarshalJSON() ([]byte, error) { return json.Marshal(o.String()) }

// ConsolidationMode selects the dynamic core management policy.
type ConsolidationMode int

const (
	// NoConsolidation keeps every physical core active.
	NoConsolidation ConsolidationMode = iota
	// GreedyConsolidation is the paper's hardware greedy EPI search with
	// exponential back-off (SH-STT-CC).
	GreedyConsolidation
	// OracleConsolidation picks the energy-optimal active-core count
	// every epoch (SH-STT-CC-Oracle).
	OracleConsolidation
	// OSConsolidation consolidates at coarse OS scheduling intervals
	// with no hardware support (SH-STT-CC-OS).
	OSConsolidation
)

// String returns the mode name.
func (m ConsolidationMode) String() string {
	switch m {
	case NoConsolidation:
		return "none"
	case GreedyConsolidation:
		return "greedy"
	case OracleConsolidation:
		return "oracle"
	case OSConsolidation:
		return "os"
	default:
		return fmt.Sprintf("ConsolidationMode(%d)", int(m))
	}
}

// MarshalJSON encodes the mode as its name.
func (m ConsolidationMode) MarshalJSON() ([]byte, error) { return json.Marshal(m.String()) }

// CacheParams describes one cache in the hierarchy.
type CacheParams struct {
	// SizeBytes is the total data capacity.
	SizeBytes int
	// BlockBytes is the line size.
	BlockBytes int
	// Assoc is the set associativity.
	Assoc int
	// ReadPorts and WritePorts bound per-cycle throughput.
	ReadPorts, WritePorts int
}

// Sets returns the number of sets implied by the geometry.
func (p CacheParams) Sets() int {
	return p.SizeBytes / (p.BlockBytes * p.Assoc)
}

// maxAssoc is the largest associativity a cache array supports: each
// way's LRU rank within its set is one byte.
const maxAssoc = 255

// Validate checks that the geometry is internally consistent.
func (p CacheParams) Validate() error {
	switch {
	case p.SizeBytes <= 0:
		return errors.New("cache size must be positive")
	case p.BlockBytes <= 0:
		return errors.New("block size must be positive")
	case p.Assoc <= 0:
		return errors.New("associativity must be positive")
	case p.Assoc > maxAssoc:
		return fmt.Errorf("associativity %d above the %d an LRU rank byte can order", p.Assoc, maxAssoc)
	case p.SizeBytes%(p.BlockBytes*p.Assoc) != 0:
		return fmt.Errorf("size %d not divisible by block*assoc %d", p.SizeBytes, p.BlockBytes*p.Assoc)
	case p.ReadPorts <= 0 || p.WritePorts <= 0:
		return errors.New("port counts must be positive")
	}
	return nil
}

const (
	kb = 1024
	mb = 1024 * kb
)

// Hierarchy is the full Table I cache hierarchy for one configuration.
type Hierarchy struct {
	// L1I and L1D describe the level-1 caches. For SharedL1 these are
	// the per-cluster shared caches; for PrivateL1 the per-core ones.
	L1I, L1D CacheParams
	// L2 is shared within each cluster.
	L2 CacheParams
	// L3 is shared by the whole chip.
	L3 CacheParams
}

// NewHierarchy builds the Table I hierarchy for the given scale, L1
// organisation and cluster size. The shared L1 capacity scales with the
// cluster size at 16 KB per core (256 KB at the default 16-core cluster,
// 512 KB at 32), exactly as the Section V.D sweep describes.
func NewHierarchy(scale CacheScale, org L1Org, clusterSize int) Hierarchy {
	l1Size := 16 * kb
	if org == SharedL1 {
		l1Size = 16 * kb * clusterSize
	}
	var l2, l3 int
	switch scale {
	case Small:
		l2, l3 = 8*mb, 24*mb
	case Large:
		l2, l3 = 32*mb, 96*mb
	default: // Medium
		l2, l3 = 16*mb, 48*mb
	}
	return Hierarchy{
		L1I: CacheParams{SizeBytes: l1Size, BlockBytes: 32, Assoc: 2, ReadPorts: 1, WritePorts: 1},
		L1D: CacheParams{SizeBytes: l1Size, BlockBytes: 32, Assoc: 4, ReadPorts: 1, WritePorts: 1},
		L2:  CacheParams{SizeBytes: l2, BlockBytes: 64, Assoc: 8, ReadPorts: 1, WritePorts: 1},
		L3:  CacheParams{SizeBytes: l3, BlockBytes: 128, Assoc: 16, ReadPorts: 1, WritePorts: 1},
	}
}

// ConsolidationParams collects the Section III management knobs.
type ConsolidationParams struct {
	// EpochInstructions is the cluster-wide committed-instruction count
	// per evaluation epoch. The paper remaps every 160 K instructions
	// against full benchmark runs whose program phases span tens of
	// millions of instructions; our workloads are scaled down by about
	// an order of magnitude, so the default epoch scales with them to
	// preserve the epochs-per-phase ratio that the greedy search's
	// convergence depends on. Set 160_000 to use the paper's absolute
	// figure (cmd/respin-sweep -sweep epoch sweeps this knob).
	EpochInstructions uint64
	// EPIThreshold is the relative EPI dead-band below which the greedy
	// automaton holds its current state.
	EPIThreshold float64
	// BackoffEpochs is the exponential hold schedule applied when an
	// oscillating on/off pattern is detected.
	BackoffEpochs []int
	// HWSwitchIntervalInstr is the hardware context-switch quantum when
	// several virtual cores share one physical core.
	HWSwitchIntervalInstr uint64
	// OSIntervalPS is the coarse OS context-switch interval used by the
	// SH-STT-CC-OS comparator (1 ms in the paper).
	OSIntervalPS int64
	// MinActiveCores bounds how far a cluster may consolidate.
	MinActiveCores int
	// MigrationDrainCycles approximates pipeline drain + register-file
	// transfer cost (core cycles) per migration.
	MigrationDrainCycles int
	// WarmupCycles approximates lost branch-predictor and pipeline state
	// after a migration (core cycles).
	WarmupCycles int
	// PowerUpStallPS is the voltage-stabilisation stall after ungating a
	// core (10-30 ns in the paper; we use the midpoint).
	PowerUpStallPS int64
	// PreferSlowCores inverts the remapper's efficiency order (ablation
	// of Section III.C's "faster cores are more energy efficient"
	// policy): the active set becomes the slowest cores.
	PreferSlowCores bool
}

// DefaultConsolidationParams returns the paper's tuned settings.
func DefaultConsolidationParams() ConsolidationParams {
	return ConsolidationParams{
		EpochInstructions:     80_000,
		EPIThreshold:          0.01,
		BackoffEpochs:         []int{2, 4, 8, 16, 32},
		HWSwitchIntervalInstr: 4_000,
		OSIntervalPS:          1_000_000_000, // 1 ms
		MinActiveCores:        4,
		MigrationDrainCycles:  60,
		WarmupCycles:          40,
		PowerUpStallPS:        20_000, // 20 ns midpoint of 10-30 ns
	}
}

// Validate checks the consolidation knobs.
func (p ConsolidationParams) Validate() error {
	switch {
	case p.EpochInstructions == 0:
		return errors.New("epoch instruction count must be positive")
	case p.EPIThreshold < 0:
		return errors.New("EPI threshold must be non-negative")
	case p.MinActiveCores < 1:
		return errors.New("min active cores must be at least 1")
	case p.HWSwitchIntervalInstr == 0:
		return errors.New("hardware switch interval must be positive")
	case p.OSIntervalPS <= 0:
		return errors.New("OS interval must be positive")
	}
	for i, b := range p.BackoffEpochs {
		if b <= 0 {
			return fmt.Errorf("backoff epoch %d must be positive, got %d", i, b)
		}
	}
	return nil
}

// ArchKind enumerates the Table IV system configurations.
type ArchKind int

const (
	// PRSRAMNT is the baseline: NT chip, private SRAM L1s at the safe
	// 0.65 V SRAM rail, shared L2/L3.
	PRSRAMNT ArchKind = iota
	// HPSRAMCMP is the conventional high-performance design: the whole
	// chip (cores and SRAM caches) at nominal voltage and frequency.
	HPSRAMCMP
	// SHSRAMNom shares the L1 per cluster but builds it from SRAM at
	// nominal voltage.
	SHSRAMNom
	// SHSTT is the proposed design: shared STT-RAM caches at nominal
	// voltage, NT cores.
	SHSTT
	// SHSTTCC is SHSTT plus greedy dynamic core consolidation.
	SHSTTCC
	// SHSTTCCOracle is SHSTT plus oracle consolidation.
	SHSTTCCOracle
	// PRSTTCC attempts consolidation with private STT-RAM L1s.
	PRSTTCC
	// SHSTTCCOS is SHSTT with OS-driven (1 ms) consolidation.
	SHSTTCCOS
)

// AllArchKinds lists every Table IV configuration in presentation order.
var AllArchKinds = []ArchKind{
	PRSRAMNT, HPSRAMCMP, SHSRAMNom, SHSTT, SHSTTCC, SHSTTCCOracle, PRSTTCC, SHSTTCCOS,
}

// String returns the paper's configuration mnemonic.
func (k ArchKind) String() string {
	switch k {
	case PRSRAMNT:
		return "PR-SRAM-NT"
	case HPSRAMCMP:
		return "HP-SRAM-CMP"
	case SHSRAMNom:
		return "SH-SRAM-Nom"
	case SHSTT:
		return "SH-STT"
	case SHSTTCC:
		return "SH-STT-CC"
	case SHSTTCCOracle:
		return "SH-STT-CC-Oracle"
	case PRSTTCC:
		return "PR-STT-CC"
	case SHSTTCCOS:
		return "SH-STT-CC-OS"
	default:
		return fmt.Sprintf("ArchKind(%d)", int(k))
	}
}

// MarshalJSON encodes the configuration as its mnemonic.
func (k ArchKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// KindByName resolves a Table IV mnemonic (as printed by String,
// case-insensitive). Unknown names error listing every valid value.
func KindByName(name string) (ArchKind, error) {
	for _, k := range AllArchKinds {
		if strings.EqualFold(k.String(), name) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("config: unknown configuration %q (valid: %s)", name, KindNames())
}

// KindNames returns the comma-separated Table IV mnemonics, for error
// messages and usage strings.
func KindNames() string {
	names := make([]string, len(AllArchKinds))
	for i, k := range AllArchKinds {
		names[i] = k.String()
	}
	return strings.Join(names, ", ")
}

// Description returns the Table IV description line.
func (k ArchKind) Description() string {
	switch k {
	case PRSRAMNT:
		return "NT chip with SRAM private L1(I/D) cache and shared L2/L3 cache (baseline)"
	case HPSRAMCMP:
		return "conventional high-performance CMP: cores and SRAM caches at nominal voltage (alt. baseline)"
	case SHSRAMNom:
		return "NT cores with cluster-shared SRAM caches at nominal voltage"
	case SHSTT:
		return "NT cores with cluster-shared STT-RAM caches at nominal voltage (proposed)"
	case SHSTTCC:
		return "SH-STT plus greedy dynamic core consolidation (proposed)"
	case SHSTTCCOracle:
		return "SH-STT plus oracle core consolidation (limit study)"
	case PRSTTCC:
		return "private STT-RAM L1s with greedy core consolidation"
	case SHSTTCCOS:
		return "SH-STT with OS-driven consolidation at 1 ms intervals"
	default:
		return "unknown configuration"
	}
}

// Config is a complete, validated system configuration.
type Config struct {
	// Kind is the Table IV mnemonic this config corresponds to.
	Kind ArchKind
	// NumCores is the chip-wide core count.
	NumCores int
	// ClusterSize is the number of cores sharing an L1/L2.
	ClusterSize int
	// Scale selects the Table I hierarchy size.
	Scale CacheScale
	// Tech is the cache memory technology.
	Tech MemTech
	// L1 selects private or shared level-1 caches.
	L1 L1Org
	// CacheVdd is the cache rail voltage.
	CacheVdd float64
	// CoreVdd is the core rail voltage.
	CoreVdd float64
	// NominalCores runs cores at nominal voltage/frequency
	// (HP-SRAM-CMP) rather than near threshold.
	NominalCores bool
	// Consolidation selects the core-management policy.
	Consolidation ConsolidationMode
	// ConsolidationParams tunes the manager.
	ConsolidationParams ConsolidationParams
	// Hierarchy is the Table I cache hierarchy.
	Hierarchy Hierarchy
	// VariationSeed seeds the process-variation map so every
	// configuration of an experiment sees the same silicon.
	VariationSeed int64
}

// New returns the configuration for one of the Table IV systems at the
// given cache scale with the default 16-core cluster.
func New(kind ArchKind, scale CacheScale) Config {
	return NewWithCluster(kind, scale, 16)
}

// NewWithCluster is New with an explicit cluster size (for the Section
// V.D sweep).
func NewWithCluster(kind ArchKind, scale CacheScale, clusterSize int) Config {
	c := Config{
		Kind:                kind,
		NumCores:            NumCores,
		ClusterSize:         clusterSize,
		Scale:               scale,
		CacheVdd:            NominalVdd,
		CoreVdd:             CoreNTVdd,
		Consolidation:       NoConsolidation,
		ConsolidationParams: DefaultConsolidationParams(),
		VariationSeed:       1,
	}
	switch kind {
	case PRSRAMNT:
		c.Tech, c.L1, c.CacheVdd = SRAM, PrivateL1, SRAMSafeVdd
	case HPSRAMCMP:
		c.Tech, c.L1, c.CoreVdd, c.NominalCores = SRAM, PrivateL1, NominalVdd, true
	case SHSRAMNom:
		c.Tech, c.L1 = SRAM, SharedL1
	case SHSTT:
		c.Tech, c.L1 = STTRAM, SharedL1
	case SHSTTCC:
		c.Tech, c.L1, c.Consolidation = STTRAM, SharedL1, GreedyConsolidation
	case SHSTTCCOracle:
		c.Tech, c.L1, c.Consolidation = STTRAM, SharedL1, OracleConsolidation
	case PRSTTCC:
		c.Tech, c.L1, c.Consolidation = STTRAM, PrivateL1, GreedyConsolidation
	case SHSTTCCOS:
		c.Tech, c.L1, c.Consolidation = STTRAM, SharedL1, OSConsolidation
		// The paper's OS consolidates at 1 ms wall-clock intervals on
		// full benchmark runs. Our workloads are scaled down by roughly
		// an order of magnitude, so the comparator's interval scales
		// with them to preserve the epochs-per-run ratio (its defining
		// property — coarse quanta relative to synchronisation — is
		// unchanged: the quantum still spans several barrier periods).
		c.ConsolidationParams.OSIntervalPS = 125_000_000
	}
	c.Hierarchy = NewHierarchy(scale, c.L1, clusterSize)
	return c
}

// NumClusters returns the cluster count.
func (c Config) NumClusters() int { return c.NumCores / c.ClusterSize }

// Validate checks the full configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.NumCores <= 0:
		return errors.New("core count must be positive")
	case c.ClusterSize <= 0:
		return errors.New("cluster size must be positive")
	case c.NumCores%c.ClusterSize != 0:
		return fmt.Errorf("core count %d not divisible by cluster size %d", c.NumCores, c.ClusterSize)
	case c.CoreVdd <= Vth && !c.NominalCores:
		return fmt.Errorf("core Vdd %.2f must exceed Vth %.2f", c.CoreVdd, Vth)
	case c.CacheVdd < c.CoreVdd:
		return errors.New("cache rail must not be below the core rail")
	case c.Consolidation != NoConsolidation && c.L1 == PrivateL1 && c.Kind != PRSTTCC:
		return errors.New("consolidation with private L1s is only modeled for PR-STT-CC")
	}
	for _, p := range []CacheParams{c.Hierarchy.L1I, c.Hierarchy.L1D, c.Hierarchy.L2, c.Hierarchy.L3} {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	if err := c.ConsolidationParams.Validate(); err != nil {
		return err
	}
	return nil
}

// CorePeriodPS returns the period, in ps, of a core running with the
// given clock multiple, or the nominal cache period when the
// configuration runs cores at nominal voltage.
func (c Config) CorePeriodPS(multiple int) int64 {
	if c.NominalCores {
		return CachePeriodPS
	}
	return int64(multiple) * CachePeriodPS
}
