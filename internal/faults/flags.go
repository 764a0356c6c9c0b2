package faults

import (
	"flag"
	"fmt"

	"respin/internal/reliability"
)

// Flags holds the standard fault-injection command-line knobs shared by
// the cmd tools; Bind registers them on the default flag set and Params
// resolves them once the chip shape is known.
type Flags struct {
	Seed         int64
	STTWriteFail float64
	SRAMBitFlip  float64
	ECCName      string
	Halt         bool
	KillCores    int
	KillCycle    uint64
}

// BindTo registers the fault-injection flags on fs (how internal/cli
// composes them into the shared CLI surface). All defaults inject
// nothing, so tools behave bit-identically to their pre-fault versions
// unless a fault flag is given.
func BindTo(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.Int64Var(&f.Seed, "fault-seed", 1,
		"fault-injection randomness seed (distinct from -seed)")
	fs.Float64Var(&f.STTWriteFail, "stt-write-fail", 0,
		"per-attempt STT-RAM write-verify failure probability")
	fs.Float64Var(&f.SRAMBitFlip, "sram-bitflip", 0,
		"per-cell SRAM read upset probability; negative derives it from the cache rail voltage")
	fs.StringVar(&f.ECCName, "ecc", "SECDED",
		"ECC scheme protecting SRAM words: none, parity, SECDED, DECTED")
	fs.BoolVar(&f.Halt, "halt-uncorrectable", false,
		"abort the run on the first detected uncorrectable SRAM word")
	fs.IntVar(&f.KillCores, "kill-cores", 0,
		"hard-kill this many cores in every cluster at -kill-cycle")
	fs.Uint64Var(&f.KillCycle, "kill-cycle", 20_000,
		"cache cycle at which -kill-cores faults strike")
	return f
}

// Params resolves the flags into injector parameters for a chip with the
// given shape.
func (f *Flags) Params(numClusters int) (Params, error) {
	ecc, err := reliability.ECCByName(f.ECCName)
	if err != nil {
		return Params{}, err
	}
	if f.KillCores < 0 {
		return Params{}, fmt.Errorf("faults: -kill-cores %d is negative", f.KillCores)
	}
	p := Params{
		Seed:                f.Seed,
		STTWriteFailProb:    f.STTWriteFail,
		SRAMBitFlipPerCell:  f.SRAMBitFlip,
		ECC:                 ecc,
		HaltOnUncorrectable: f.Halt,
	}
	if f.KillCores > 0 {
		p.Kills = KillFirstN(numClusters, f.KillCores, f.KillCycle)
	}
	return p, nil
}
