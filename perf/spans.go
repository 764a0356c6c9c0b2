package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a harness boundary. Spans of one request or
// run share Req; Parent links a span to the one that caused it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: begin and end do nothing.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span; the returned value is closed with end.
func (t *tracer) begin(name, req string, parent uint64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.next.Add(1), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.epoch))}
}

// end closes and records s.
func (t *tracer) end(s span) {
	if t == nil || s.ID == 0 {
		return
	}
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the recorded spans in start order.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (the
// concurrent requests of one phase) count their union once.
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s, kids[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals clipped to the
// parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	end := parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		total += v.hi - max(v.lo, end)
		end = v.hi
	}
	return total
}

// spanStat summarizes the spans of one name.
type spanStat struct {
	Count        int     `json:"count"`
	MedianMS     float64 `json:"median_ms"`
	MedianSelfMS float64 `json:"median_self_ms"`
}

func spanStats(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e6)
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID])/1e6)
	}
	out := make(map[string]spanStat, len(durs))
	for name, d := range durs {
		out[name] = spanStat{
			Count:        len(d),
			MedianMS:     summarize(d).Median,
			MedianSelfMS: summarize(selfs[name]).Median,
		}
	}
	return out
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
