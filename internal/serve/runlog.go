package serve

import (
	"bytes"
	"fmt"
	"sync"
)

// runLog buffers one run's telemetry event stream (JSONL) so SSE
// clients can replay it from the start and follow it live. It is the
// io.Writer behind the run's telemetry emitter: the emitter writes one
// whole line per event, but Write still splits defensively so a
// multi-line write cannot corrupt the framing.
type runLog struct {
	id string

	mu      sync.Mutex
	lines   []string
	pending []byte
	done    bool
	notify  chan struct{}
}

func newRunLog(id string) *runLog {
	return &runLog{id: id, notify: make(chan struct{})}
}

// Write appends event bytes, completing a line per '\n'.
func (l *runLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pending = append(l.pending, p...)
	changed := false
	for {
		i := bytes.IndexByte(l.pending, '\n')
		if i < 0 {
			break
		}
		l.lines = append(l.lines, string(l.pending[:i]))
		l.pending = l.pending[i+1:]
		changed = true
	}
	if changed {
		l.broadcastLocked()
	}
	return len(p), nil
}

// finish marks the stream complete; followers drain and return.
func (l *runLog) finish() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) > 0 {
		l.lines = append(l.lines, string(l.pending))
		l.pending = nil
	}
	l.done = true
	l.broadcastLocked()
}

// finished reports whether finish was called.
func (l *runLog) finished() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.done
}

// broadcastLocked wakes every waiter by closing and replacing the
// notification channel. Callers hold mu.
func (l *runLog) broadcastLocked() {
	close(l.notify)
	l.notify = make(chan struct{})
}

// after returns the lines past offset, whether the stream is complete,
// and a channel that closes on the next change — the three things an
// SSE follower needs per iteration.
func (l *runLog) after(offset int) (lines []string, done bool, changed <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if offset < len(l.lines) {
		lines = l.lines[offset:]
	}
	return lines, l.done, l.notify
}

// logRegistry tracks recent run logs by id, evicting the oldest
// finished entries past cap so a long-lived server's memory stays
// bounded. Logs of runs still in flight are never evicted: the
// admission queue already bounds how many there are, and a follower of
// a long run must still find its log however many short runs finish
// meanwhile.
type logRegistry struct {
	mu    sync.Mutex
	logs  map[string]*runLog
	order []string
	seq   uint64
	cap   int
}

func newLogRegistry(capacity int) *logRegistry {
	if capacity <= 0 {
		capacity = 128
	}
	return &logRegistry{logs: make(map[string]*runLog), cap: capacity}
}

// create registers a fresh log under id (a client-chosen id that
// collides with a live entry gets a server-assigned one instead, so
// ids stay unambiguous). Empty or oversized ids are server-assigned,
// skipping any a client already chose, so every id is registered once
// and order never repeats one.
func (g *logRegistry) create(id string) *runLog {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !validRunID(id) {
		id = ""
	}
	for _, taken := g.logs[id]; id == "" || taken; _, taken = g.logs[id] {
		g.seq++
		id = fmt.Sprintf("r%06d", g.seq)
	}
	l := newRunLog(id)
	g.logs[id] = l
	g.order = append(g.order, id)
	if excess := len(g.order) - g.cap; excess > 0 {
		kept := g.order[:0]
		for _, old := range g.order {
			ol := g.logs[old]
			if ol == nil {
				// Not registered (ids are unique, so this cannot happen);
				// drop it rather than fail every later create.
				continue
			}
			if excess > 0 && ol.finished() {
				delete(g.logs, old)
				excess--
				continue
			}
			kept = append(kept, old)
		}
		g.order = kept
	}
	return l
}

// get returns the log registered under id, or nil.
func (g *logRegistry) get(id string) *runLog {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.logs[id]
}

// validRunID accepts short path-safe ids for the Respin-Run-Id header.
func validRunID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}
