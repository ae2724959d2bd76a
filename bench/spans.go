package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Parent is the ID of
// the span that caused it, or -1 for a root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder is
// the untraced mode: start returns -1 and end does nothing, so call sites
// need no branches. Safe for concurrent use (live_steady records one span
// per in-flight Infer).
type spanRecorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// setWorkload labels the spans started from now on.
func (r *spanRecorder) setWorkload(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.workload = name
	r.mu.Unlock()
}

// start opens a span and returns its ID.
func (r *spanRecorder) start(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Workload: r.workload, Name: name, StartNS: now, EndNS: now})
	r.mu.Unlock()
	return id
}

// end closes a span opened by start.
func (r *spanRecorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].EndNS = now
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *spanRecorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// its direct children cover. Children are clipped to the parent's interval
// and overlapping children (concurrent Infer calls) are merged first, so
// self time never goes negative.
func selfTimes(spans []span) map[int]int64 {
	type interval struct{ lo, hi int64 }
	children := make(map[int][]interval)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.StartNS, s.EndNS
		if lo < p.StartNS {
			lo = p.StartNS
		}
		if hi > p.EndNS {
			hi = p.EndNS
		}
		if hi > lo {
			children[s.Parent] = append(children[s.Parent], interval{lo, hi})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, end := int64(0), s.StartNS
		for _, iv := range ivs {
			if iv.hi <= end {
				continue
			}
			if iv.lo < end {
				iv.lo = end
			}
			covered += iv.hi - iv.lo
			end = iv.hi
		}
		out[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return out
}

// spanTotal sums duration and self time of the spans sharing a name.
type spanTotal struct {
	Name   string `json:"name"`
	Count  int    `json:"count"`
	WallNS int64  `json:"wall_ns"`
	SelfNS int64  `json:"self_ns"`
}

func spanTotals(spans []span) []spanTotal {
	self := selfTimes(spans)
	idx := make(map[string]int)
	var out []spanTotal
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, spanTotal{Name: s.Name})
		}
		out[i].Count++
		out[i].WallNS += s.EndNS - s.StartNS
		out[i].SelfNS += self[s.ID]
	}
	return out
}

// writeSpans writes the span file once, at exit.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(struct {
		Spans  []span      `json:"spans"`
		Totals []spanTotal `json:"totals"`
	}{spans, spanTotals(spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
