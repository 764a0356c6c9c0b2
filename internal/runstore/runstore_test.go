package runstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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

// TestName: an entry's name hashes its key alone; which model wrote it
// is the directory's stamp, not part of the name.
func TestName(t *testing.T) {
	a := Name("k")
	if a != Name("k") || len(a) != 64 {
		t.Fatalf("Name(k) = %q: not a stable hex SHA-256", a)
	}
	for _, other := range []string{Name("k2"), Name(""), Name("1k"), Name("k\x00")} {
		if other == a {
			t.Fatalf("distinct keys share the name %s", a)
		}
	}
	if !owned.MatchString(a+ResultSuffix) || !owned.MatchString(a+CheckpointSuffix) {
		t.Fatal("an entry's files are not the store's own")
	}
}

// TestLifecycle: the first entry access stamps the directory; Begin
// hands out the entry's checkpoint path and writes nothing else; while
// the run is unfinished the entry is its
// checkpoint alone; Commit writes the result and removes the
// checkpoint; Result reads the result back.
func TestLifecycle(t *testing.T) {
	st, dir := openStore(t)
	stem := Name("k")
	if _, err := st.Result("k"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Result before a commit: %v, want ErrNotExist", err)
	}
	spec, err := st.Begin("k")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Path != filepath.Join(dir, stem+CheckpointSuffix) || spec.EveryCycles != 500 {
		t.Fatalf("Begin spec %+v", spec)
	}
	if got := files(t, dir); len(got) != 1 || got[0] != StampFile {
		t.Fatalf("Begin wrote %v, want the stamp alone", got)
	}
	if err := os.WriteFile(spec.Path, []byte("ckpt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := files(t, dir); len(got) != 2 || got[0] != stem+CheckpointSuffix {
		t.Fatalf("running entry holds %v, want its checkpoint alone", got)
	}
	if err := st.Commit("k", []byte("result")); err != nil {
		t.Fatal(err)
	}
	if got := files(t, dir); len(got) != 2 || got[0] != stem+ResultSuffix {
		t.Fatalf("committed entry holds %v, want its result alone", got)
	}
	if got, err := st.Result("k"); err != nil || string(got) != "result" {
		t.Fatalf("Result = %q, %v", got, err)
	}
}

// TestResultReadsOnlyItsEntry: Result reads the committed result of its
// key and nothing else: not its checkpoint, not a temporary file an
// interrupted commit left, and not another key's result.
func TestResultReadsOnlyItsEntry(t *testing.T) {
	st, dir := openStore(t)
	if _, err := st.Result("k"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Result(k) in an empty store: %v, want ErrNotExist", err)
	}
	for _, name := range []string{
		Name("k") + CheckpointSuffix,
		Name("k") + ResultSuffix + ".tmp123",
		Name("other") + ResultSuffix,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
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

// storeFiles are the names a store writes: an entry's result and
// checkpoint, the layouts before the stamp, and the temporary files of
// interrupted atomic writes.
var storeFiles = []string{
	Name("k") + ResultSuffix,
	Name("k2") + CheckpointSuffix,
	Name("old") + ".result.json",
	Name("old") + ".req.json",
	Name("old") + ".req",
	Name("k") + ResultSuffix + ".tmp4242",
	Name("k2") + CheckpointSuffix + ".tmp17",
	StampFile + ".tmp99",
}

// otherFiles are names a store never writes.
var otherFiles = []string{
	"notes.txt",
	"a.ckpt",
	"abc" + ResultSuffix,
	Name("k") + ".txt",
	strings.ToUpper(Name("k"))[:63] + "g" + ResultSuffix,
}

// TestStampClearsForeignStores: a directory another model or store
// format stamped, and an unstamped one that holds entries (every store
// written before the stamp), lose every file a store writes at the
// first entry access, but not at Open, and are stamped for the current
// model. Every other file survives, and an entry committed there under
// the current naming is never read.
func TestStampClearsForeignStores(t *testing.T) {
	for _, c := range []struct {
		name  string
		stamp []byte // nil: none
	}{
		{"older model", Stamp(sim.ModelVersion - 1)},
		{"newer model", Stamp(sim.ModelVersion + 1)},
		{"other format", fmt.Appendf(nil, "respin run store: format %d, model %d\n", format+1, sim.ModelVersion)},
		{"damaged", []byte("respin run st")},
		{"unstamped", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			names := append(append([]string(nil), storeFiles...), otherFiles...)
			if c.stamp != nil {
				names = append(names, StampFile)
			}
			for _, name := range names {
				data := []byte("stale")
				if name == StampFile {
					data = c.stamp
				}
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.Mkdir(filepath.Join(dir, Name("sub")+CheckpointSuffix), 0o755); err != nil {
				t.Fatal(err)
			}
			st, err := Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := files(t, dir); len(got) != len(names)+1 {
				t.Fatalf("Open changed the directory: %v", got)
			}
			if got, err := st.Result("k"); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("Result(k) = %q, %v: a foreign store's entry was read", got, err)
			}
			want := append(append([]string(nil), otherFiles...), StampFile, Name("sub")+CheckpointSuffix)
			sort.Strings(want)
			if got := files(t, dir); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("after the first access the directory holds %v, want %v", got, want)
			}
			if stamp, err := os.ReadFile(filepath.Join(dir, StampFile)); err != nil || !bytes.Equal(stamp, Stamp(sim.ModelVersion)) {
				t.Fatalf("stamp %q, %v; want %q", stamp, err, Stamp(sim.ModelVersion))
			}
		})
	}
}

// TestStampKeepsCurrentStore: a directory stamped for the current model
// keeps every file, and its entries are read; an unstamped one that
// holds no entry is stamped and keeps its files too.
func TestStampKeepsCurrentStore(t *testing.T) {
	dir := t.TempDir()
	names := append(append([]string{StampFile}, storeFiles...), otherFiles...)
	for _, name := range names {
		data := []byte("kept")
		if name == StampFile {
			data = Stamp(sim.ModelVersion)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := st.Result("k"); err != nil || string(got) != "kept" {
		t.Fatalf("Result(k) = %q, %v; want the current store's entry", got, err)
	}
	if got := files(t, dir); len(got) != len(names) {
		t.Fatalf("a current store lost files: %v", got)
	}

	plain := t.TempDir()
	for _, name := range otherFiles {
		if err := os.WriteFile(filepath.Join(plain, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err = Open(plain, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Begin("k"); err != nil {
		t.Fatal(err)
	}
	if got := files(t, plain); len(got) != len(otherFiles)+1 {
		t.Fatalf("an unstamped directory without entries holds %v after its first access", got)
	}
}

func TestOpenDefaultsCadence(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if spec, err := st.Begin("k"); err != nil || spec.EveryCycles != sim.DefaultCheckpointEvery {
		t.Fatalf("zero cadence: spec %+v, %v; want sim.DefaultCheckpointEvery", spec, err)
	}
}

// TestStampClaimedOnceConcurrently: a store's first entry accesses,
// from many goroutines at once, clear another model's directory once
// and then commit and read their own entries.
func TestStampClaimedOnceConcurrently(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, StampFile), Stamp(sim.ModelVersion+1), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprint("k", i)
			if err := st.Commit(key, []byte(key)); err != nil {
				t.Error(err)
				return
			}
			if got, err := st.Result(key); err != nil || string(got) != key {
				t.Errorf("Result(%s) = %q, %v", key, got, err)
			}
		}()
	}
	wg.Wait()
	if got := files(t, dir); len(got) != 9 {
		t.Fatalf("store holds %v, want 8 entries and the stamp", got)
	}
}
