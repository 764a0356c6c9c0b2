package runstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"respin/internal/sim"
)

func openStore(t *testing.T) (*Store, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Open(dir, 500)
	if err != nil {
		t.Fatal(err)
	}
	return st, dir
}

// files lists the directory's file names, sorted.
func files(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

func TestName(t *testing.T) {
	a := Name(1, "k")
	if a != Name(1, "k") || len(a) != 64 {
		t.Fatalf("Name(1, k) = %q: not a stable hex SHA-256", a)
	}
	for _, other := range []string{Name(2, "k"), Name(1, "k2"), Name(11, ""), Name(1, "1k")} {
		if other == a {
			t.Fatalf("distinct (version, key) pairs share the name %s", a)
		}
	}
	if Name(1, "1\x00k") == Name(11, "k") {
		t.Fatal("the version and key run together")
	}
}

// TestLifecycle: Begin hands out the entry's checkpoint path and
// writes nothing; while the run is unfinished the entry is its
// checkpoint alone; Commit writes the result and removes the
// checkpoint; Result reads the result back.
func TestLifecycle(t *testing.T) {
	st, dir := openStore(t)
	stem := Name(sim.ModelVersion, "k")
	if _, err := st.Result("k"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Result before a commit: %v, want ErrNotExist", err)
	}
	spec := st.Begin("k")
	if spec.Path != filepath.Join(dir, stem+CheckpointSuffix) || spec.EveryCycles != 500 {
		t.Fatalf("Begin spec %+v", spec)
	}
	if got := files(t, dir); len(got) != 0 {
		t.Fatalf("Begin wrote %v, want nothing", got)
	}
	if err := os.WriteFile(spec.Path, []byte("ckpt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := files(t, dir); len(got) != 1 || got[0] != stem+CheckpointSuffix {
		t.Fatalf("running entry holds %v, want its checkpoint alone", got)
	}
	if err := st.Commit("k", []byte("result")); err != nil {
		t.Fatal(err)
	}
	if got := files(t, dir); len(got) != 1 || got[0] != stem+ResultSuffix {
		t.Fatalf("committed entry holds %v, want its result alone", got)
	}
	if got, err := st.Result("k"); err != nil || string(got) != "result" {
		t.Fatalf("Result = %q, %v", got, err)
	}
}

// TestResultReadsOnlyItsEntry: Result reads the committed result of its
// key under the current model and nothing else: not the key's entry
// under another model version, not its checkpoint, not a temporary file
// an interrupted commit left, and not another key's result.
func TestResultReadsOnlyItsEntry(t *testing.T) {
	st, dir := openStore(t)
	write := func(name string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(Name(sim.ModelVersion-1, "k") + ResultSuffix)
	write(Name(sim.ModelVersion+1, "k") + ResultSuffix)
	write(Name(sim.ModelVersion, "k") + CheckpointSuffix)
	write(Name(sim.ModelVersion, "k") + ResultSuffix + ".tmp123")
	write(Name(sim.ModelVersion, "other") + ResultSuffix)
	if got, err := st.Result("k"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Result(k) with no committed entry = %q, %v; want ErrNotExist", got, err)
	}
	if err := st.Commit("k", []byte("mine")); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Result("k"); err != nil || !bytes.Equal(got, []byte("mine")) {
		t.Fatalf("Result(k) = %q, %v; want its own commit", got, err)
	}
}

func TestOpenDefaultsCadence(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if spec := st.Begin("k"); spec.EveryCycles != sim.DefaultCheckpointEvery {
		t.Fatalf("zero cadence: spec %+v; want sim.DefaultCheckpointEvery", spec)
	}
}
