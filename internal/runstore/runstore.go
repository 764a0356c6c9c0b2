// Package runstore is the one on-disk store of simulation runs, shared
// by the service's journal (serve.Options.Journal) and the batch
// runner's CheckpointDir (DESIGN §4h). An entry is three files named
// Name(sim.ModelVersion, key), the key being the whole run definition:
// <name>.req, the request, written before the run executes; <name>.ckpt,
// its checkpoint; and <name>.result, the recorded outcome, committed
// atomically, after which the other two are removed. An entry of another
// model version is invisible, so its run executes again. Payloads are
// the callers'; the store reads them only through Replay's key functions.
package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"respin/internal/checkpoint"
	"respin/internal/sim"
)

// The suffixes of an entry's files.
const (
	RequestSuffix    = ".req"
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

// Begin records key's request before its run executes and returns the
// checkpoint spec the run executes under (sim.RunOrResume), so an
// interrupted run resumes from its entry's checkpoint.
func (s *Store) Begin(key string, request []byte) (sim.CheckpointSpec, error) {
	if err := checkpoint.WriteFile(s.path(key, RequestSuffix), request); err != nil {
		return sim.CheckpointSpec{}, fmt.Errorf("runstore: %w", err)
	}
	return sim.CheckpointSpec{Path: s.path(key, CheckpointSuffix), EveryCycles: s.every}, nil
}

// Commit records result as key's outcome and removes the entry's
// request and checkpoint.
func (s *Store) Commit(key string, result []byte) error {
	if err := checkpoint.WriteFile(s.path(key, ResultSuffix), result); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	os.Remove(s.path(key, CheckpointSuffix))
	os.Remove(s.path(key, RequestSuffix))
	return nil
}

// Result returns key's committed result; an error wrapping
// os.ErrNotExist when there is none.
func (s *Store) Result(key string) ([]byte, error) {
	return os.ReadFile(s.path(key, ResultSuffix))
}

// Replay reads the whole store: the committed results by key, and the
// requests without one (runs a previous process left unfinished).
// resultKey and requestKey return the key a file belongs to. A file they refuse, or
// whose name is not its key's under the current model, is skipped, so a
// damaged or stale entry costs an execution, never an error. A request
// whose result is committed missed its cleanup and is removed.
func (s *Store) Replay(resultKey, requestKey func([]byte) (string, error)) (results map[string][]byte, requests [][]byte, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("runstore: %w", err)
	}
	done := make(map[string]bool)
	scan := func(suffix string, keyOf func([]byte) (string, error), keep func(stem, key string, data []byte)) {
		for _, e := range entries {
			stem, ok := strings.CutSuffix(e.Name(), suffix)
			if !ok {
				continue
			}
			path := filepath.Join(s.dir, e.Name())
			if done[stem] {
				os.Remove(path)
				continue
			}
			data, err := os.ReadFile(path)
			if err != nil {
				continue
			}
			if key, err := keyOf(data); err == nil && Name(sim.ModelVersion, key) == stem {
				keep(stem, key, data)
			}
		}
	}
	results = make(map[string][]byte)
	scan(ResultSuffix, resultKey, func(stem, key string, data []byte) {
		done[stem] = true
		results[key] = data
	})
	scan(RequestSuffix, requestKey, func(_, _ string, data []byte) { requests = append(requests, data) })
	return results, requests, nil
}
