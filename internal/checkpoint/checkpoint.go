// Package checkpoint is the on-disk container for simulation
// checkpoints: a small versioned header, a SHA-256 checksum, and a
// gob-encoded payload. The container knows nothing about the payload's
// shape — package sim owns the snapshot structure and bumps the version
// it passes here whenever that structure changes incompatibly. Inside
// the payload, the bulky state types encode themselves as flat binary
// records; Reader and AppendFloat64 are their shared codec (record.go).
//
// Format (all integers big-endian):
//
//	offset  size  field
//	0       8     magic "RSPNCKPT"
//	8       4     version (uint32, owned by the payload's producer)
//	12      8     payload length (uint64)
//	20      32    SHA-256 of the payload bytes
//	52      n     gob-encoded payload
//
// Writes are crash-safe: the file is assembled in a temporary sibling
// and renamed into place, so a reader never observes a half-written
// checkpoint — it sees either the previous complete file or the new
// one. The checksum catches the remaining failure modes (torn storage,
// truncation, bit rot); Load refuses a corrupt file with a structured
// error rather than handing gob a poisoned stream.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// magic identifies a respin checkpoint file.
const magic = "RSPNCKPT"

const headerLen = 8 + 4 + 8 + sha256.Size

// maxPayload bounds how much Load will read: a corrupt length field
// must not make it attempt a multi-terabyte allocation.
const maxPayload = 1 << 32

// ErrCorrupt wraps all integrity failures (bad magic, checksum
// mismatch, truncation) so callers can distinguish "damaged file" from
// "wrong version" or plain I/O errors.
type ErrCorrupt struct {
	Path   string
	Reason string
}

func (e *ErrCorrupt) Error() string {
	return fmt.Sprintf("checkpoint %s: corrupt: %s", e.Path, e.Reason)
}

// ErrVersion reports a version mismatch: the file is intact but was
// written by an incompatible snapshot layout.
type ErrVersion struct {
	Path      string
	Got, Want uint32
}

func (e *ErrVersion) Error() string {
	return fmt.Sprintf("checkpoint %s: version %d, want %d", e.Path, e.Got, e.Want)
}

// Save gob-encodes payload and writes the container to path atomically
// (temporary file in the same directory, fsync, rename).
func Save(path string, version uint32, payload any) error {
	var w Writer
	return w.Save(path, version, payload)
}

// Writer saves the successive checkpoints of one run. It sizes each
// encode buffer from the previous write, so a save does not regrow its
// buffer from empty through every doubling. The zero value is ready to
// use; a Writer is not safe for concurrent use.
type Writer struct {
	last int
}

// Save is the package-level Save with the buffer sized from the
// previous write.
func (w *Writer) Save(path string, version uint32, payload any) error {
	body := bytes.NewBuffer(make([]byte, 0, w.last+w.last/16))
	if err := gob.NewEncoder(body).Encode(payload); err != nil {
		return fmt.Errorf("checkpoint %s: encode: %w", path, err)
	}
	w.last = body.Len()
	sum := sha256.Sum256(body.Bytes())

	var hdr [headerLen]byte
	copy(hdr[0:8], magic)
	binary.BigEndian.PutUint32(hdr[8:12], version)
	binary.BigEndian.PutUint64(hdr[12:20], uint64(body.Len()))
	copy(hdr[20:], sum[:])

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(hdr[:]); err == nil {
		_, err = tmp.Write(body.Bytes())
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("checkpoint %s: write: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return nil
}

// Load reads the container at path, verifies magic, version and
// checksum, and gob-decodes the payload into out (a pointer).
func Load(path string, version uint32, out any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var hdr [headerLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return &ErrCorrupt{Path: path, Reason: "truncated header"}
	}
	if string(hdr[0:8]) != magic {
		return &ErrCorrupt{Path: path, Reason: "bad magic"}
	}
	if got := binary.BigEndian.Uint32(hdr[8:12]); got != version {
		return &ErrVersion{Path: path, Got: got, Want: version}
	}
	n := binary.BigEndian.Uint64(hdr[12:20])
	if n > maxPayload {
		return &ErrCorrupt{Path: path, Reason: fmt.Sprintf("implausible payload length %d", n)}
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(f, body); err != nil {
		return &ErrCorrupt{Path: path, Reason: "truncated payload"}
	}
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], hdr[20:]) {
		return &ErrCorrupt{Path: path, Reason: "checksum mismatch"}
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(out); err != nil {
		return fmt.Errorf("checkpoint %s: decode: %w", path, err)
	}
	return nil
}

// ReadVersion returns the version field of the container at path
// without decoding the payload.
func ReadVersion(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [20]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, &ErrCorrupt{Path: path, Reason: "truncated header"}
	}
	if string(hdr[0:8]) != magic {
		return 0, &ErrCorrupt{Path: path, Reason: "bad magic"}
	}
	return binary.BigEndian.Uint32(hdr[8:12]), nil
}
