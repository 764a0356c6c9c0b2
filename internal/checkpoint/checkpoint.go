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
// Writes are crash-safe: WriteFile, the one atomic writer of the
// repository's on-disk state, assembles the file in a temporary
// sibling, syncs it and renames it into place, so a reader never
// observes a half-written file — it sees either the previous complete
// file or the new one. The checksum catches the remaining failure modes
// (torn storage, truncation, bit rot); Load and Decode refuse a corrupt
// container with a structured error rather than handing gob a poisoned
// stream.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
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
// (see WriteFile).
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
	data, err := w.encode(version, payload)
	if err != nil {
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return WriteFile(path, data)
}

// encode assembles the container in one buffer: the header is reserved
// up front and filled once the payload's length and checksum are known.
func (w *Writer) encode(version uint32, payload any) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, headerLen, headerLen+w.last+w.last/16))
	if err := gob.NewEncoder(buf).Encode(payload); err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	data := buf.Bytes()
	body := data[headerLen:]
	w.last = len(body)
	sum := sha256.Sum256(body)
	copy(data[0:8], magic)
	binary.BigEndian.PutUint32(data[8:12], version)
	binary.BigEndian.PutUint64(data[12:20], uint64(len(body)))
	copy(data[20:headerLen], sum[:])
	return data, nil
}

// Encode returns the container bytes Save would write for payload.
func Encode(version uint32, payload any) ([]byte, error) {
	var w Writer
	return w.encode(version, payload)
}

// WriteFile writes data to path atomically: it is written to a
// temporary sibling, synced and renamed into place, so a crash mid-write
// leaves either the previous file or the new one, never a torn file.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint %s: %w", path, err)
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(data)
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
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return Decode(path, data, version, out)
}

// Decode is Load over container bytes already in memory; name labels
// its errors.
func Decode(name string, data []byte, version uint32, out any) error {
	if len(data) < headerLen {
		return &ErrCorrupt{Path: name, Reason: "truncated header"}
	}
	if string(data[0:8]) != magic {
		return &ErrCorrupt{Path: name, Reason: "bad magic"}
	}
	if got := binary.BigEndian.Uint32(data[8:12]); got != version {
		return &ErrVersion{Path: name, Got: got, Want: version}
	}
	n := binary.BigEndian.Uint64(data[12:20])
	if n > maxPayload {
		return &ErrCorrupt{Path: name, Reason: fmt.Sprintf("implausible payload length %d", n)}
	}
	if n > uint64(len(data)-headerLen) {
		return &ErrCorrupt{Path: name, Reason: "truncated payload"}
	}
	body := data[headerLen : headerLen+int(n)]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], data[20:headerLen]) {
		return &ErrCorrupt{Path: name, Reason: "checksum mismatch"}
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(out); err != nil {
		return fmt.Errorf("checkpoint %s: decode: %w", name, err)
	}
	return nil
}
