package serve

// The crash-safe run journal. The server's body store and SSE logs live
// in memory, so a SIGKILL or OOM forgets every completed run and throws
// away every in-flight one. With Options.Journal set, the server keeps a
// write-ahead journal on disk instead:
//
//	<sha256(key)>.req.json     the accepted request, written (atomic
//	                           temp+fsync+rename) BEFORE execution starts
//	<sha256(key)>.ckpt         periodic simulation checkpoint, rewritten
//	                           at epoch boundaries while the run executes
//	<sha256(key)>.result.json  the canonical RunResult body, written on
//	                           completion; req+ckpt are then removed
//
// On restart the journal is replayed: each result file that passes the
// strict v1 decode seeds the server's body store with its bytes as they
// are (served byte-identically, no re-execution, no re-encode), and
// request files without results are the interrupted runs — each is
// re-executed in the background, resuming from its checkpoint when one
// survived. A client that re-POSTs an interrupted request joins the
// recovery flight through the store's singleflight, so convergence to
// the uninterrupted bytes costs one partial re-run at most.
//
// Only recorded outcomes are committed — StatusComplete and
// StatusWearOut, the store's own rule — so a partial or failed result
// can never masquerade as a complete one after a restart.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	v1 "respin/internal/api/v1"
)

// defaultJournalEvery is the checkpoint cadence (in simulated cycles)
// for journaled runs when Options.JournalCheckpointCycles is zero.
const defaultJournalEvery = 20_000

// journal is the on-disk write-ahead journal. In memory, committed
// results live only in the server's body store.
type journal struct {
	dir   string
	every uint64
}

// openJournal creates/opens the journal directory and replays it: each
// committed result goes to seed as its request key and file bytes, and
// the interrupted requests that need recovery are returned. Unreadable
// or corrupt entries are skipped, never fatal: a damaged journal costs
// re-execution, not availability.
func openJournal(dir string, every uint64, seed func(key string, body []byte)) (*journal, []v1.RunRequest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: journal: %w", err)
	}
	if every == 0 {
		every = defaultJournalEvery
	}
	j := &journal{dir: dir, every: every}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: journal: %w", err)
	}
	done := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".result.json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		// The strict decode is the only gate before these bytes are
		// served verbatim.
		doc, err := v1.DecodeRunResult(bytes.NewReader(data))
		if err != nil || !doc.Recorded() {
			continue
		}
		seed(doc.Request.Key(), data)
		done[strings.TrimSuffix(name, ".result.json")] = true
	}
	var pending []v1.RunRequest
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".req.json") {
			continue
		}
		h := strings.TrimSuffix(name, ".req.json")
		if done[h] {
			// The request completed and committed; the leftover WAL
			// entry just missed its cleanup.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		req, err := v1.DecodeRunRequest(f)
		f.Close()
		if err != nil {
			continue
		}
		pending = append(pending, req)
	}
	return j, pending, nil
}

// hash names a request's journal files: the hex SHA-256 of its
// canonical key, so identical requests share one entry and the file
// name stays filesystem-safe whatever the request contains.
func (j *journal) hash(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

func (j *journal) reqPath(key string) string {
	return filepath.Join(j.dir, j.hash(key)+".req.json")
}

func (j *journal) ckptPath(key string) string {
	return filepath.Join(j.dir, j.hash(key)+".ckpt")
}

func (j *journal) resultPath(key string) string {
	return filepath.Join(j.dir, j.hash(key)+".result.json")
}

// logRequest journals an accepted request before its execution starts —
// the write-ahead step that makes an in-flight run recoverable.
// Idempotent: a recovery re-execution overwrites the same bytes.
func (j *journal) logRequest(key string, req v1.RunRequest) error {
	data, err := v1.EncodeBytes(req)
	if err != nil {
		return fmt.Errorf("serve: journal: %w", err)
	}
	return j.writeAtomic(j.reqPath(key), data)
}

// commit durably records a run's final body and retires its WAL entry
// and checkpoint. After the result file is in place the request and
// checkpoint files are dead weight; removing them keeps replay linear in
// the number of incomplete runs.
func (j *journal) commit(key string, body []byte) error {
	if err := j.writeAtomic(j.resultPath(key), body); err != nil {
		return err
	}
	os.Remove(j.ckptPath(key))
	os.Remove(j.reqPath(key))
	return nil
}

// writeAtomic writes data to path via a synced temporary sibling and
// rename, so a crash mid-write leaves either the old file or the new
// one, never a torn journal entry.
func (j *journal) writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(j.dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("serve: journal: %w", err)
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("serve: journal %s: %w", path, err)
	}
	return nil
}
