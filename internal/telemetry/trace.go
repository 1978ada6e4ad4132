package telemetry

import (
	"sync"
	"time"
)

// Stage names of one scheduling pass, in the order a cycle runs them.
// Every span carries one of these names.
const (
	// StageSnapshotSync is bringing the incremental cluster view current
	// (cache.SyncView) before planning.
	StageSnapshotSync = "snapshot-sync"
	// StagePreFilter is the gang director's gate on a gang member: the
	// group's capacity check and its age boost (Kubernetes' PreFilter
	// point, by analogy). Solo pods skip it.
	StagePreFilter = "prefilter"
	// StageFilter is the feasibility walk: candidate generation over the
	// node index (sampled) or the full node list. The §IV fit runs per
	// (pod, node) inside the walk, so this stage reports walk totals —
	// timing every combination would cost more than the work measured.
	StageFilter = "filter"
	// StageScore is the policy's selection among the feasible candidates
	// (core.Policy.Select): the SGX-last rule, scoring and the pick.
	StageScore = "score"
	// StagePermit is the gang director's quorum step after a held member's
	// conditional reservation, the whole-gang commit at quorum included
	// (Kubernetes' Permit point, by analogy).
	StagePermit = "permit"
	// StagePreempt is preemption planning: victim search and pipeline
	// replay against the predicted post-eviction state.
	StagePreempt = "preemption-plan"
	// StageBind is the API server commit (Bind/Reserve calls).
	StageBind = "bind"
)

// Span is one stage's time over a pass. Count is how many operations
// the span aggregates — pods for per-pod stages, commit attempts for
// bind.
type Span struct {
	Stage string
	Dur   time.Duration
	Count int
}

// PassTrace is the record of one scheduling pass: wall timing, outcome
// counts, and the stage spans. Detailed marks passes that carried
// per-pod stage timing — prefilter, filter, score, permit and
// preemption-plan (sampled — see core.Config.TraceDetailEvery);
// undetailed passes still record the pass-level spans (snapshot-sync,
// bind) and every outcome counter.
type PassTrace struct {
	Scheduler string
	// Seq numbers this scheduler's passes from 1; consecutive traces
	// from one scheduler have strictly increasing Seq.
	Seq      int64
	Start    time.Time
	Wall     time.Duration
	Detailed bool

	// Pending is the pods the pass examined — what it pulled from the
	// queue before its budget, its cap or the queue ran out — not the
	// depth of the queue (apiserver_pending_depth is that).
	Pending       int
	Bound         int
	Unschedulable int
	Gated         int
	Conflicts     int
	Held          int
	Preemptions   int

	Spans []Span
}

// TraceRing retains the last N pass traces — the "why was scheduling
// slow" flight recorder. Record copies the trace (spans included), so
// callers may reuse their span buffers across passes; the ring is
// written once per pass, far off the per-pod hot path.
type TraceRing struct {
	mu    sync.Mutex
	buf   []PassTrace
	next  int
	count int
	total int64
}

// DefaultTraceRingSize is the pass-trace retention when unconfigured.
const DefaultTraceRingSize = 64

// NewTraceRing creates a ring retaining the last n traces
// (DefaultTraceRingSize when n <= 0).
func NewTraceRing(n int) *TraceRing {
	if n <= 0 {
		n = DefaultTraceRingSize
	}
	return &TraceRing{buf: make([]PassTrace, n)}
}

// Record appends a trace, evicting the oldest beyond capacity. The
// trace's span slice is copied. No-op on a nil ring.
func (r *TraceRing) Record(t PassTrace) {
	if r == nil {
		return
	}
	t.Spans = append([]Span(nil), t.Spans...)
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the retained traces oldest-first. Nil ring → nil.
func (r *TraceRing) Snapshot() []PassTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PassTrace, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Len returns the retained trace count.
func (r *TraceRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Total returns how many traces were ever recorded (monotonic; Total -
// Len is the evicted count).
func (r *TraceRing) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
