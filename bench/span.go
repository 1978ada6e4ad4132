package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// noSpan is the parent of a root span and the id a nil tracer hands out.
const noSpan = int32(-1)

// span is one timed call into a layer. Start and End are nanoseconds
// since the tracer was created; Parent is the span that caused it
// (noSpan for a root) and Rep the repetition it belongs to.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Rep    int32  `json:"rep"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory; nothing is written until the run ends.
// A nil tracer is the tracing-off state: every method is a no-op, so the
// harness code shared between the traced and untraced runs calls it
// unconditionally.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	rep   int32
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// setRep stamps subsequent spans with the repetition index.
func (t *tracer) setRep(rep int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rep = int32(rep)
	t.mu.Unlock()
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Rep: t.rep, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	if t == nil || id == noSpan {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].End = now
	d := now - t.spans[id].Start
	t.mu.Unlock()
	return time.Duration(d)
}

// rename relabels a span once its outcome is known (a pass that bound
// nothing becomes an idle pass).
func (t *tracer) rename(id int32, name string) {
	if t == nil || id == noSpan {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// len is the number of spans recorded so far.
func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children running concurrently
// (the members of a sharded round) may overlap each other, so coverage
// is the union of their intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanStats folds the spans of one name: how many (and how many of them
// caused no child span), their summed duration and summed self time, and
// each duration in microseconds.
type spanStats struct {
	count     int
	childless int
	busyNS    int64
	selfNS    int64
	durUS     []float64
}

func (s *spanStats) busySeconds() float64 { return float64(s.busyNS) / 1e9 }
func (s *spanStats) selfSeconds() float64 { return float64(s.selfNS) / 1e9 }

// spanIndex aggregates spans per name; a missing name yields an empty
// spanStats so callers read zero counts without a presence check.
type spanIndex map[string]*spanStats

func indexSpans(spans []span) spanIndex {
	self := selfTimes(spans)
	parents := make(map[int32]bool)
	for _, s := range spans {
		parents[s.Parent] = true
	}
	idx := make(spanIndex)
	for _, s := range spans {
		st := idx[s.Name]
		if st == nil {
			st = &spanStats{}
			idx[s.Name] = st
		}
		st.count++
		if !parents[s.ID] {
			st.childless++
		}
		st.busyNS += s.dur()
		st.selfNS += self[s.ID]
		st.durUS = append(st.durUS, float64(s.dur())/1e3)
	}
	return idx
}

func (idx spanIndex) get(name string) *spanStats {
	if st := idx[name]; st != nil {
		return st
	}
	return &spanStats{}
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	doc := struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("writing spans to %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans to %s: %w", path, err)
	}
	return nil
}
