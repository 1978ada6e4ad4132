// Package borg provides the Google Borg trace substrate of the evaluation
// (§VI-B). The real 2011 trace (~12 500 machines, 29 days) is not
// redistributable, so this package pairs a schema-compatible CSV
// encoder/parser with a synthetic generator calibrated to the published
// marginals:
//
//   - Fig. 3 — per-job maximal memory usage, expressed as a fraction of
//     the largest machine, bounded by 0.5;
//   - Fig. 4 — job durations, all at most 300 s;
//   - Fig. 5 — ~125k-145k concurrently running jobs over the first 24 h,
//     with the least job-intensive hour at 6480-10080 s (the paper's
//     evaluation slice);
//   - §VI-B/§VI-F — the evaluation slice holds 663 jobs after 1-in-1200
//     sampling, 44 of which "actually try to allocate more memory than
//     they advertise".
//
// The replayed scheduler consumes exactly the four fields the paper
// extracts: submission time, duration, assigned memory and maximal memory
// usage.
package borg

import (
	"sort"
	"time"

	"github.com/sgxorch/sgxorch/internal/resource"
)

// Constants fixed by the paper (§VI-B, §VI-F).
const (
	// EvalWindowStart and EvalWindowEnd bound the replayed slice: "we use
	// a 1-hour subset ranging from 6480 s to 10 080 s".
	EvalWindowStart = 6480 * time.Second
	EvalWindowEnd   = 10080 * time.Second
	// SampleInterval is the frequency reduction: "we sample every 1200th
	// job from the trace".
	SampleInterval = 1200
	// EvalJobCount is the resulting slice size ("44 jobs out of 663").
	EvalJobCount = 663
	// EvalOverAllocators is the number of slice jobs whose maximal usage
	// exceeds their advertisement.
	EvalOverAllocators = 44
	// MaxDuration bounds job runtimes: "all jobs last at most 300 s"
	// (Fig. 4).
	MaxDuration = 300 * time.Second
	// MaxMemFraction bounds the memory usage factor (Fig. 3's x-axis).
	MaxMemFraction = 0.5
	// EvalMaxMemFraction additionally bounds slice jobs. It keeps SGX
	// demands within the smallest simulated EPC node of Fig. 7 (32 MiB,
	// 23.4 MiB usable: 23.4/93.5 ≈ 0.25) and matches the request axes of
	// Fig. 9 (≤25 MB SGX, ≤7500 MB standard).
	EvalMaxMemFraction = 0.24
)

// Memory scaling multipliers (§VI-B): standard jobs scale to 32 GiB ("the
// power-of-2 closest to the average of the total memory installed in our
// test machines"); SGX jobs scale to the usable EPC of the paper's
// hardware (93.5 MiB) — fixed even when simulating other EPC sizes, which
// is what makes Fig. 7's capacity sweep meaningful.
const (
	StandardMemoryScale = 32 * resource.GiB
	SGXMemoryScale      = 93*resource.MiB + 512*resource.KiB
)

// Job is one trace record, reduced to the fields the paper extracts.
type Job struct {
	ID int64
	// Submit is the submission offset from the start of the trace (or of
	// the window after slicing).
	Submit time.Duration
	// Duration is the useful runtime recorded in the trace.
	Duration time.Duration
	// AssignedMemFrac is the advertised memory ("assigned memory"), as a
	// fraction of the largest machine's capacity.
	AssignedMemFrac float64
	// MaxMemFrac is the memory actually allocated ("maximal memory
	// usage"), same unit.
	MaxMemFrac float64
}

// OverAllocates reports whether the job uses more memory than it
// advertises — the behaviour that strict limit enforcement kills (§VI-F).
func (j Job) OverAllocates() bool { return j.MaxMemFrac > j.AssignedMemFrac }

// StandardMemBytes scales a memory fraction to standard-job bytes.
func StandardMemBytes(frac float64) int64 {
	return int64(frac * float64(StandardMemoryScale))
}

// SGXMemBytes scales a memory fraction to SGX-job EPC bytes.
func SGXMemBytes(frac float64) int64 {
	return int64(frac * float64(SGXMemoryScale))
}

// Trace is an ordered sequence of jobs.
type Trace struct {
	Jobs []Job
	// Horizon is the submission span covered by the trace.
	Horizon time.Duration
}

// Len returns the job count.
func (t *Trace) Len() int { return len(t.Jobs) }

// sortBySubmit normalises job order (stable on ID for equal submits).
func (t *Trace) sortBySubmit() {
	sort.SliceStable(t.Jobs, func(i, j int) bool {
		if t.Jobs[i].Submit != t.Jobs[j].Submit {
			return t.Jobs[i].Submit < t.Jobs[j].Submit
		}
		return t.Jobs[i].ID < t.Jobs[j].ID
	})
}

// Window extracts jobs submitting in [from, to), re-basing submission
// offsets to the window start — the paper's time reduction (§VI-B).
func (t *Trace) Window(from, to time.Duration) *Trace {
	out := &Trace{Horizon: to - from}
	for _, j := range t.Jobs {
		if j.Submit >= from && j.Submit < to {
			jj := j
			jj.Submit -= from
			out.Jobs = append(out.Jobs, jj)
		}
	}
	out.sortBySubmit()
	return out
}

// OverAllocatorCount counts jobs whose usage exceeds their advertisement.
func (t *Trace) OverAllocatorCount() int {
	n := 0
	for _, j := range t.Jobs {
		if j.OverAllocates() {
			n++
		}
	}
	return n
}

// TotalDuration sums the useful runtime of all jobs — the "Trace" bar of
// Fig. 10.
func (t *Trace) TotalDuration() time.Duration {
	var sum time.Duration
	for _, j := range t.Jobs {
		sum += j.Duration
	}
	return sum
}

// MemFractions returns the maximal memory usage fractions (Fig. 3's
// sample).
func (t *Trace) MemFractions() []float64 {
	out := make([]float64, 0, len(t.Jobs))
	for _, j := range t.Jobs {
		out = append(out, j.MaxMemFrac)
	}
	return out
}

// DurationsSeconds returns the job durations in seconds (Fig. 4's
// sample).
func (t *Trace) DurationsSeconds() []float64 {
	out := make([]float64, 0, len(t.Jobs))
	for _, j := range t.Jobs {
		out = append(out, j.Duration.Seconds())
	}
	return out
}
