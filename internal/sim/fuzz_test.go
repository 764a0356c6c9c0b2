package sim_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"respin/internal/config"
	"respin/internal/experiments"
	"respin/internal/runstore"
	"respin/internal/sim"
	"respin/internal/telemetry"
)

// The checkpoint container's header (internal/checkpoint): magic,
// version, payload length, payload SHA-256.
const (
	ckptMagic  = "RSPNCKPT"
	ckptHeader = 8 + 4 + 8 + sha256.Size
)

// container wraps payload in a checkpoint container of the given
// version with a valid checksum, so a mutated payload reaches the gob
// decoder and everything behind it.
func container(version uint32, payload []byte) []byte {
	data := make([]byte, ckptHeader, ckptHeader+len(payload))
	copy(data, ckptMagic)
	binary.BigEndian.PutUint32(data[8:12], version)
	binary.BigEndian.PutUint64(data[12:20], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(data[20:], sum[:])
	return append(data, payload...)
}

// fuzzRun is the run both fuzzed files belong to: short, with a
// watchdog a few times its length, so a resumed hostile state ends
// quickly whatever it holds.
var (
	fuzzCfg   = config.New(config.SHSTT, config.Medium)
	fuzzBench = "fft"
)

func fuzzOpts() sim.Options {
	return sim.Options{QuotaInstr: 1_500, Seed: 1, MaxCycles: 60_000}
}

// fuzzFile is one real file the fuzz target mutates: its container
// version and payload, and the path it must be written to.
type fuzzFile struct {
	version uint32
	payload []byte
	name    string
}

// realCheckpoint runs the fuzz run with a checkpoint armed mid-run and
// returns the checkpoint file.
func realCheckpoint(f *testing.F, dir string) fuzzFile {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, "run.ckpt")
	spec := sim.CheckpointSpec{Path: path, AtCycle: 1_000}
	if _, err := sim.RunOrResume(context.Background(), fuzzCfg, fuzzBench, fuzzOpts(), spec); err != nil {
		f.Fatal(err)
	}
	return readContainer(f, path)
}

// realOutcome commits the fuzz run through a Runner's run store and
// returns the stored outcome file.
func realOutcome(f *testing.F, dir string) fuzzFile {
	r := fuzzRunner(dir)
	if _, errs := r.Do(fuzzRunnerRun()); errs[0] != nil {
		f.Fatal(errs[0])
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 || !strings.HasSuffix(entries[0].Name(), runstore.ResultSuffix) {
		f.Fatalf("run store holds %v (%v), want one committed result", entries, err)
	}
	return readContainer(f, filepath.Join(dir, entries[0].Name()))
}

func readContainer(f *testing.F, path string) fuzzFile {
	data, err := os.ReadFile(path)
	if err != nil || len(data) < ckptHeader {
		f.Fatalf("read %s: %d bytes, %v", path, len(data), err)
	}
	return fuzzFile{
		version: binary.BigEndian.Uint32(data[8:12]),
		payload: data[ckptHeader:],
		name:    filepath.Base(path),
	}
}

func fuzzRunner(dir string) *experiments.Runner {
	return &experiments.Runner{Quota: 1_500, Seed: 1, Jobs: 1, CheckpointDir: dir, Telemetry: telemetry.New()}
}

func fuzzRunnerRun() experiments.Run {
	return experiments.Run{Label: "fuzz", Config: fuzzCfg, Bench: fuzzBench, Opts: fuzzOpts()}
}

// FuzzSnapshotRestore mutates the gob payload of a real checkpoint
// (outcome false) or of a Runner outcome stored in the run store
// (outcome true) by overwriting the bytes at offset at with patch, and
// recomputes the container checksum so the payload gets past the
// integrity check. Small in-place edits mostly still decode, so they
// reach the restore and the resumed run rather than stopping in gob.
// sim.RunOrResume over the checkpoint, and a Runner recalling the
// outcome, must then return an error or a result — never panic — and
// whenever they refuse the file and run afresh, their result must equal
// a fresh run's.
func FuzzSnapshotRestore(f *testing.F) {
	dir := f.TempDir()
	ckpt := realCheckpoint(f, filepath.Join(dir, "ckpt"))
	stored := realOutcome(f, filepath.Join(dir, "store"))
	fresh, err := sim.Run(fuzzCfg, fuzzBench, fuzzOpts())
	if err != nil {
		f.Fatal(err)
	}
	freshJSON, err := json.Marshal(fresh)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(false, uint32(0), []byte{})
	f.Add(true, uint32(0), []byte{})
	f.Add(false, uint32(len(ckpt.payload)/2), []byte{0xff})
	f.Add(true, uint32(len(stored.payload)/2), []byte{0xff})

	f.Fuzz(func(t *testing.T, outcome bool, at uint32, patch []byte) {
		file := ckpt
		if outcome {
			file = stored
		}
		payload := bytes.Clone(file.payload)
		copy(payload[int(at)%len(payload):], patch)
		dir := t.TempDir()
		if outcome {
			data := container(stored.version, payload)
			if err := os.WriteFile(filepath.Join(dir, stored.name), data, 0o644); err != nil {
				t.Fatal(err)
			}
			r := fuzzRunner(dir)
			results, errs := r.Do(fuzzRunnerRun())
			if res := results[0]; errs[0] == nil && r.RunsStarted() == 1 {
				// The runner refused the stored outcome and ran afresh
				// (with metrics attached, which the fresh run lacks).
				res.Metrics = nil
				if got, _ := json.Marshal(res); !bytes.Equal(got, freshJSON) {
					t.Fatal("a runner that refused a stored outcome returned another result than a fresh run")
				}
			}
			return
		}
		path := filepath.Join(dir, ckpt.name)
		if err := os.WriteFile(path, container(ckpt.version, payload), 0o644); err != nil {
			t.Fatal(err)
		}
		var events bytes.Buffer
		opts := fuzzOpts()
		opts.Telemetry = telemetry.New(telemetry.WithEvents(&events))
		res, err := sim.RunOrResume(context.Background(), fuzzCfg, fuzzBench, opts, sim.CheckpointSpec{Path: path, EveryCycles: 1 << 40})
		if err == nil && bytes.Contains(events.Bytes(), []byte(`"run.start"`)) {
			res.Metrics = nil
			if got, _ := json.Marshal(res); !bytes.Equal(got, freshJSON) {
				t.Fatal("RunOrResume refused a checkpoint and returned another result than a fresh run")
			}
		}
	})
}
