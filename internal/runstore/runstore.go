// Package runstore is the one on-disk store of simulation runs: the
// batch runner's CheckpointDir, which is also the service's journal
// (serve.Options.Journal), so respin-bench, respin-sweep and
// respin-serve recall each other's runs (DESIGN §4h). An entry is named
// Name(sim.ModelVersion, key), the key being the whole run definition
// (sim.RunKey), and is one file at a time: <name>.ckpt, the checkpoint,
// while its run is unfinished, and <name>.result, the recorded outcome,
// once it is committed (atomically; the checkpoint is then removed). An
// entry is read only when its key is asked for, and one of another model
// version is never asked for, so its run executes again. The runner
// (package experiments) is the store's one user: it encodes the outcome
// record and checks that a record holds the key it was read for.
package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"respin/internal/checkpoint"
	"respin/internal/sim"
)

// The suffixes of an entry's files.
const (
	CheckpointSuffix = ".ckpt"
	ResultSuffix     = ".result"
)

// Store is one store directory whose runs checkpoint every `every`
// simulated cycles. It is safe for concurrent use on distinct keys, and
// cheap to open again.
type Store struct {
	dir   string
	every uint64
}

// Open creates (if needed) and opens the store in dir; every zero
// selects sim.DefaultCheckpointEvery.
func Open(dir string, every uint64) (*Store, error) {
	if every == 0 {
		every = sim.DefaultCheckpointEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return &Store{dir: dir, every: every}, nil
}

// Name is the file name stem of key's entry under a model version: a
// hex SHA-256, so it is filesystem-safe whatever the key holds.
func Name(version int, key string) string {
	sum := sha256.Sum256(fmt.Appendf(nil, "%d\x00%s", version, key))
	return hex.EncodeToString(sum[:])
}

func (s *Store) path(key, suffix string) string {
	return filepath.Join(s.dir, Name(sim.ModelVersion, key)+suffix)
}

// Begin returns the checkpoint spec key's run executes under
// (sim.RunOrResume), so an interrupted run resumes from its entry's
// checkpoint.
func (s *Store) Begin(key string) sim.CheckpointSpec {
	return sim.CheckpointSpec{Path: s.path(key, CheckpointSuffix), EveryCycles: s.every}
}

// Commit records result as key's outcome and removes the entry's
// checkpoint.
func (s *Store) Commit(key string, result []byte) error {
	if err := checkpoint.WriteFile(s.path(key, ResultSuffix), result); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	os.Remove(s.path(key, CheckpointSuffix))
	return nil
}

// Result returns key's committed result; an error wrapping
// os.ErrNotExist when there is none.
func (s *Store) Result(key string) ([]byte, error) {
	return os.ReadFile(s.path(key, ResultSuffix))
}
