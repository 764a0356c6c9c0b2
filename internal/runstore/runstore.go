// Package runstore is the one on-disk store of simulation runs: the
// batch runner's CheckpointDir, which is also the service's journal
// (serve.Options.Journal), so respin-bench, respin-sweep and
// respin-serve recall each other's runs (DESIGN §4h). An entry is named
// Name(key), the key being the whole run definition (sim.RunKey), and
// is one file at a time: <name>.ckpt, the checkpoint, while its run is
// unfinished, and <name>.result, the recorded outcome, once it is
// committed (atomically; the checkpoint is then removed). An entry is
// read only when its key is asked for. The runner (package experiments)
// is the store's one user: it encodes the outcome record and checks
// that a record holds the key it was read for.
//
// One rule decides how long an entry lives: the directory's stamp
// (StampFile) names the store format and the sim.ModelVersion its
// entries were written under. Before a Store first reads or writes an
// entry, a directory stamped otherwise, or not stamped at all, loses
// every file a store writes (entries, the layouts before the stamp,
// and temporary files of interrupted writes) and is stamped anew; any
// other file survives. So an entry is read only under the model and
// layout that wrote it, and a model change empties the store instead of
// leaving the old entries on disk forever. One directory serves one
// model at a time: processes of two models must not share it at once.
package runstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"

	"respin/internal/checkpoint"
	"respin/internal/sim"
)

// The suffixes of an entry's files, and the name of the stamp in a
// store directory.
const (
	CheckpointSuffix = ".ckpt"
	ResultSuffix     = ".result"
	StampFile        = "runstore.stamp"
)

// format numbers the layout of a store's entries. Bump it by hand when
// Name or the shape of sim.RunKey changes: a missed bump leaves entries
// that no key reaches, as the model version guards everything else.
const format = 1

// Stamp is the content of the stamp of a store whose entries model
// version model wrote.
func Stamp(model int) []byte {
	return fmt.Appendf(nil, "respin run store: format %d, model %d\n", format, model)
}

// owned matches the names a store writes: the stamp, an entry's
// checkpoint or result, the files of the layouts before the stamp
// (<name>.result.json, <name>.req.json, <name>.req), and the temporary
// files interrupted atomic writes of any of them leave.
var owned = regexp.MustCompile(`^([0-9a-f]{64}(\.ckpt|\.result|\.result\.json|\.req|\.req\.json)|` +
	regexp.QuoteMeta(StampFile) + `)(\.tmp[0-9]*)?$`)

// Store is one store directory whose runs checkpoint every `every`
// simulated cycles. It is safe for concurrent use on distinct keys.
type Store struct {
	dir   string
	every uint64

	claimed sync.Once
	err     error // claim's, returned by every entry access
}

// Open creates (if needed) and opens the store in dir; every zero
// selects sim.DefaultCheckpointEvery. It reads nothing: the stamp is
// checked at the first entry access.
func Open(dir string, every uint64) (*Store, error) {
	if every == 0 {
		every = sim.DefaultCheckpointEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return &Store{dir: dir, every: every}, nil
}

// Name is the file name stem of key's entry: a hex SHA-256, so it is
// filesystem-safe whatever the key holds.
func Name(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// stem is the path of key's entry without a suffix, once the directory
// is claimed for the current model.
func (s *Store) stem(key string) (string, error) {
	s.claimed.Do(func() { s.err = claim(s.dir) })
	return filepath.Join(s.dir, Name(key)), s.err
}

// claim makes dir a store of the current model: unless its stamp is
// Stamp(sim.ModelVersion), it removes every file a store writes and
// stamps the directory.
func claim(dir string) error {
	stamp, want := filepath.Join(dir, StampFile), Stamp(sim.ModelVersion)
	if got, err := os.ReadFile(stamp); err == nil && bytes.Equal(got, want) {
		return nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	for _, e := range entries {
		if e.Type().IsRegular() && owned.MatchString(e.Name()) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !errors.Is(err, os.ErrNotExist) {
				return fmt.Errorf("runstore: clearing %s: %w", dir, err)
			}
		}
	}
	if err := checkpoint.WriteFile(stamp, want); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	return nil
}

// Begin returns the checkpoint spec key's run executes under
// (sim.RunOrResume), so an interrupted run resumes from its entry's
// checkpoint.
func (s *Store) Begin(key string) (sim.CheckpointSpec, error) {
	stem, err := s.stem(key)
	if err != nil {
		return sim.CheckpointSpec{}, err
	}
	return sim.CheckpointSpec{Path: stem + CheckpointSuffix, EveryCycles: s.every}, nil
}

// Commit records result as key's outcome and removes the entry's
// checkpoint.
func (s *Store) Commit(key string, result []byte) error {
	stem, err := s.stem(key)
	if err != nil {
		return err
	}
	if err := checkpoint.WriteFile(stem+ResultSuffix, result); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	os.Remove(stem + CheckpointSuffix)
	return nil
}

// Result returns key's committed result; an error wrapping
// os.ErrNotExist when there is none.
func (s *Store) Result(key string) ([]byte, error) {
	stem, err := s.stem(key)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(stem + ResultSuffix)
}
