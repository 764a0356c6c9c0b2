package chaos

import (
	"os"
	"path/filepath"
	"testing"
)

// The full harness (process spawning, SIGKILL, two sweeps) runs as the
// CI chaos-smoke job via `respin-bench -only chaos`; these tests cover
// the harness's own plumbing.

func TestParseListenAddr(t *testing.T) {
	addr, ok := parseListenAddr("respin-serve: listening on 127.0.0.1:43619\n")
	if !ok || addr != "127.0.0.1:43619" {
		t.Fatalf("parseListenAddr = %q, %v", addr, ok)
	}
	if _, ok := parseListenAddr("ran SH-STT.Medium.cl16.fft.q40000"); ok {
		t.Fatal("progress line parsed as a listen address")
	}
}

func TestModuleRoot(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("moduleRoot %q has no go.mod: %v", root, err)
	}
}

func TestJournalCounts(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.result", "b.result", "c.req", "c.ckpt", "d.result.tmp123"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, pending := journalCounts(dir)
	if committed != 2 || pending != 1 {
		t.Fatalf("journalCounts = %d committed, %d pending; want 2, 1", committed, pending)
	}
}
