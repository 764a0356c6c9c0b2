package sim

import (
	"os"
	"path/filepath"
	"testing"

	"respin/internal/config"
)

// ckptBenchCases are the checkpoint benchmarks' chips: the shared-L1
// STT design and the private-L1 SRAM baseline (coherence directory and
// per-core L1Ds), both at medium scale.
var ckptBenchCases = []struct {
	kind  config.ArchKind
	bench string
}{
	{config.SHSTT, "fft"},
	{config.PRSRAMNT, "ocean"},
}

// finishedSim runs one case to completion at quota 10000 and returns the
// finished Sim with its final cycle, the state a journal checkpoint of a
// short served run captures.
func finishedSim(b *testing.B, kind config.ArchKind, bench string) (*Sim, uint64) {
	b.Helper()
	s, err := New(config.New(kind, config.Medium), bench, Options{QuotaInstr: 10_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		b.Fatal(err)
	}
	return s, res.Cycles
}

// reportFileBytes attaches the checkpoint file size as a custom metric.
func reportFileBytes(b *testing.B, path string) {
	b.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size()), "file-bytes")
}

// BenchmarkCheckpointSave times one WriteCheckpoint (touched-way
// snapshot, gob encode of the structured parts around the flat binary
// records, SHA-256, temp file + fsync + rename), the write the serve
// journal repeats every 20000 simulated cycles. On a 2-core Xeon host,
// medians of -count 5: SH-STT/fft 6.3 ms, 500 allocs, 0.72 MB;
// PR-SRAM-NT/ocean 13.2 ms, 860 allocs, 1.2 MB (snapshot version 2:
// 18.4 ms / 3.8k allocs and 41.1 ms / 21.8k allocs).
func BenchmarkCheckpointSave(b *testing.B) {
	for _, tc := range ckptBenchCases {
		b.Run(tc.kind.String()+"/"+tc.bench, func(b *testing.B) {
			s, now := finishedSim(b, tc.kind, tc.bench)
			path := filepath.Join(b.TempDir(), "run.ckpt")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.WriteCheckpoint(path, now); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportFileBytes(b, path)
		})
	}
}

// BenchmarkResume times Resume from such a checkpoint: load, checksum,
// gob decode, rebuild the chip with New, and restore its state.
func BenchmarkResume(b *testing.B) {
	for _, tc := range ckptBenchCases {
		b.Run(tc.kind.String()+"/"+tc.bench, func(b *testing.B) {
			s, now := finishedSim(b, tc.kind, tc.bench)
			path := filepath.Join(b.TempDir(), "run.ckpt")
			if err := s.WriteCheckpoint(path, now); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Resume(path); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportFileBytes(b, path)
		})
	}
}
