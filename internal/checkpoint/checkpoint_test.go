package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

type payload struct {
	Name  string
	Vals  []uint64
	Cycle uint64
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	in := payload{Name: "fig9", Vals: []uint64{1, 2, 3}, Cycle: 42}
	if err := Save(path, 7, in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Load(path, 7, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Cycle != in.Cycle || len(out.Vals) != 3 || out.Vals[2] != 3 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	if err := Save(path, 1, payload{}); err != nil {
		t.Fatal(err)
	}
	var out payload
	err := Load(path, 2, &out)
	var ev *ErrVersion
	if !errors.As(err, &ev) || ev.Got != 1 || ev.Want != 2 {
		t.Fatalf("want ErrVersion{1,2}, got %v", err)
	}
}

func TestCorruptPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	if err := Save(path, 1, payload{Name: "y"}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	var ec *ErrCorrupt
	if err := Load(path, 1, &out); !errors.As(err, &ec) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	if err := Save(path, 1, payload{Name: "y", Vals: []uint64{9, 9, 9}}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 5, headerLen - 1, len(b) - 1} {
		if err := os.WriteFile(path, b[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		var out payload
		var ec *ErrCorrupt
		if err := Load(path, 1, &out); !errors.As(err, &ec) {
			t.Fatalf("truncate to %d: want ErrCorrupt, got %v", n, err)
		}
	}
}

func TestBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	if err := os.WriteFile(path, []byte("NOTACKPTxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	var ec *ErrCorrupt
	if err := Load(path, 1, &out); !errors.As(err, &ec) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}
