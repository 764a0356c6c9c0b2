package runstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"respin/internal/sim"
)

// keyOf is the test payloads' key function: a payload is "key=<key>",
// anything else is damaged.
func keyOf(data []byte) (string, error) {
	key, ok := strings.CutPrefix(string(data), "key=")
	if !ok {
		return "", errors.New("damaged")
	}
	return key, nil
}

func payload(key string) []byte { return []byte("key=" + key) }

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

// TestLifecycle: Begin records the request and hands out the entry's
// checkpoint path; Commit writes the result and removes the request
// and checkpoint; Result reads the result back.
func TestLifecycle(t *testing.T) {
	st, dir := openStore(t)
	stem := Name(sim.ModelVersion, "k")
	if _, err := st.Result("k"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Result before a commit: %v, want ErrNotExist", err)
	}
	spec, err := st.Begin("k", payload("k"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Path != filepath.Join(dir, stem+CheckpointSuffix) || spec.EveryCycles != 500 {
		t.Fatalf("Begin spec %+v", spec)
	}
	if err := os.WriteFile(spec.Path, []byte("ckpt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, want := files(t, dir), []string{stem + CheckpointSuffix, stem + RequestSuffix}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("running entry holds %v, want %v", got, want)
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

// TestReplay: committed results and unfinished requests come back by
// key; damaged files, entries of another model version, files misnamed
// for their key and temporary files are skipped; a request whose result
// is committed is removed.
func TestReplay(t *testing.T) {
	st, dir := openStore(t)
	write := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit("done", payload("done")); err != nil {
		t.Fatal(err)
	}
	write(Name(sim.ModelVersion, "done")+RequestSuffix, payload("done")) // missed its cleanup
	if _, err := st.Begin("open", payload("open")); err != nil {
		t.Fatal(err)
	}
	write(Name(sim.ModelVersion, "damaged")+ResultSuffix, []byte("torn"))
	write(Name(sim.ModelVersion, "damaged")+RequestSuffix, []byte("torn"))
	write(Name(sim.ModelVersion+1, "stale")+ResultSuffix, payload("stale"))
	write(Name(sim.ModelVersion+1, "stale")+RequestSuffix, payload("stale"))
	write(Name(sim.ModelVersion, "other")+ResultSuffix, payload("misnamed"))
	write(Name(sim.ModelVersion, "x")+ResultSuffix+".tmp123", payload("x"))

	results, requests, err := st.Replay(keyOf, keyOf)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !bytes.Equal(results["done"], payload("done")) {
		t.Fatalf("replayed results %q, want done alone", results)
	}
	if len(requests) != 1 || !bytes.Equal(requests[0], payload("open")) {
		t.Fatalf("replayed requests %q, want open alone", requests)
	}
	if _, err := os.Stat(filepath.Join(dir, Name(sim.ModelVersion, "done")+RequestSuffix)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the committed entry's leftover request was kept: %v", err)
	}
}

func TestOpenDefaultsCadence(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if spec, err := st.Begin("k", payload("k")); err != nil || spec.EveryCycles != sim.DefaultCheckpointEvery {
		t.Fatalf("zero cadence: spec %+v, %v; want sim.DefaultCheckpointEvery", spec, err)
	}
}
