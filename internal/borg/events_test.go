package borg

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestParseTaskEventsBasic(t *testing.T) {
	input := strings.Join([]string{
		"0,,100,0,,0,user1,2,9,0.5,0.125,0.01,", // SUBMIT job 100, mem req 0.125
		"1000000,,100,0,m1,1,user1,2,9,,,,",     // SCHEDULE at 1s
		"61000000,,100,0,m1,4,user1,2,9,,,,",    // FINISH at 61s
	}, "\n") + "\n"
	events, err := ParseTaskEvents(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].Type != EventSubmit || events[0].MemoryRequest != 0.125 {
		t.Fatalf("submit = %+v", events[0])
	}
	if events[1].Type != EventSchedule || events[1].Timestamp != time.Second {
		t.Fatalf("schedule = %+v", events[1])
	}
	if events[2].Type != EventFinish || events[2].Timestamp != 61*time.Second {
		t.Fatalf("finish = %+v", events[2])
	}
}

func TestParseTaskEventsErrors(t *testing.T) {
	bad := []string{
		"x,,100,0,,0,u,2,9,,,,\n",      // bad timestamp
		"0,,abc,0,,0,u,2,9,,,,\n",      // bad job ID
		"0,,100,z,,0,u,2,9,,,,\n",      // bad task index
		"0,,100,0,,9,u,2,9,,,,\n",      // event type out of range
		"0,,100,0,,0,u,2,9,,bogus,,\n", // bad memory request
		"0,,100,0,,0,u,2,9,,1.5,,\n",   // memory request out of range
		"0,,100,0,,0\n",                // wrong column count
		"0,,100,0,,0,u,2,9,,NaN,,\n",   // NaN memory request
		"-1,,100,0,,0,u,2,9,,,,\n",     // negative timestamp
		// A timestamp past math.MaxInt64/1000 µs wraps negative as a Duration.
		"9300000000000000,,100,0,,0,u,2,9,,,,\n",
		// Only 2^63−1 marks an event after the window; its neighbour is refused.
		"9223372036854775806,,100,0,,0,u,2,9,,,,\n",
	}
	for _, in := range bad {
		if _, err := ParseTaskEvents(strings.NewReader(in)); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
}

// TestParseTaskEventsAfterWindow: the published trace stamps events after
// its window 2^63−1 µs. Such a row is dropped, not refused with the whole
// file, and a job whose FINISH it was is skipped as still running at trace
// end.
func TestParseTaskEventsAfterWindow(t *testing.T) {
	const marker = "9223372036854775807"
	for _, tc := range []struct {
		name   string
		rows   []string
		events int // events parsed
		jobs   []int64
	}{{
		name: "marker row dropped",
		rows: []string{
			"0,,100,0,,0,u,2,9,,0.125,,",
			marker + ",,100,0,m1,2,u,2,9,,,,", // EVICT after the window
			"1000000,,100,0,m1,1,u,2,9,,,,",
			"61000000,,100,0,m1,4,u,2,9,,,,",
		},
		events: 3,
		jobs:   []int64{100},
	}, {
		name: "finish after the window",
		rows: []string{
			"0,,100,0,,0,u,2,9,,0.125,,",
			"1000000,,100,0,m1,1,u,2,9,,,,",
			"61000000,,100,0,m1,4,u,2,9,,,,",
			"0,,200,0,,0,u,2,9,,0.25,,",
			"2000000,,200,0,m2,1,u,2,9,,,,",
			marker + ",,200,0,m2,4,u,2,9,,,,",
		},
		events: 5,
		jobs:   []int64{100},
	}} {
		events, err := ParseTaskEvents(strings.NewReader(strings.Join(tc.rows, "\n") + "\n"))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(events) != tc.events {
			t.Fatalf("%s: %d events, want %d", tc.name, len(events), tc.events)
		}
		var jobs []int64
		for _, j := range JobsFromEvents(events, nil).Jobs {
			jobs = append(jobs, j.ID)
		}
		if fmt.Sprint(jobs) != fmt.Sprint(tc.jobs) {
			t.Fatalf("%s: jobs %v, want %v", tc.name, jobs, tc.jobs)
		}
	}
}

func TestJobsFromEvents(t *testing.T) {
	events := []TaskEvent{
		{Timestamp: 0, JobID: 1, Type: EventSubmit, MemoryRequest: 0.1},
		{Timestamp: 2 * time.Second, JobID: 1, Type: EventSchedule},
		{Timestamp: 62 * time.Second, JobID: 1, Type: EventFinish},
		// Job 2: killed, never finishes — skipped.
		{Timestamp: 5 * time.Second, JobID: 2, Type: EventSubmit, MemoryRequest: 0.2},
		{Timestamp: 6 * time.Second, JobID: 2, Type: EventSchedule},
		{Timestamp: 10 * time.Second, JobID: 2, Type: EventKill},
		// Job 3: multi-task — earliest submit/schedule, latest finish,
		// max request.
		{Timestamp: 10 * time.Second, JobID: 3, Type: EventSubmit, MemoryRequest: 0.05},
		{Timestamp: 11 * time.Second, JobID: 3, Type: EventSubmit, MemoryRequest: 0.08},
		{Timestamp: 12 * time.Second, JobID: 3, Type: EventSchedule},
		{Timestamp: 13 * time.Second, JobID: 3, Type: EventSchedule},
		{Timestamp: 40 * time.Second, JobID: 3, Type: EventFinish},
		{Timestamp: 50 * time.Second, JobID: 3, Type: EventFinish},
	}
	usage := map[int64]float64{1: 0.09}
	tr := JobsFromEvents(events, usage)
	if tr.Len() != 2 {
		t.Fatalf("jobs = %d, want 2", tr.Len())
	}
	j1 := tr.Jobs[0]
	if j1.ID != 1 || j1.Submit != 0 || j1.Duration != time.Minute {
		t.Fatalf("job 1 = %+v", j1)
	}
	if j1.AssignedMemFrac != 0.1 || j1.MaxMemFrac != 0.09 {
		t.Fatalf("job 1 memory = %+v", j1)
	}
	j3 := tr.Jobs[1]
	if j3.ID != 3 || j3.Submit != 10*time.Second || j3.Duration != 38*time.Second {
		t.Fatalf("job 3 = %+v", j3)
	}
	if j3.AssignedMemFrac != 0.08 {
		t.Fatalf("job 3 request = %v, want max across tasks", j3.AssignedMemFrac)
	}
	// No usage entry: falls back to the request.
	if j3.MaxMemFrac != 0.08 {
		t.Fatalf("job 3 usage = %v", j3.MaxMemFrac)
	}
}

func TestTaskEventsRoundTrip(t *testing.T) {
	src := NewGenerator(6).EvalSlice()
	var buf bytes.Buffer
	if err := WriteTaskEvents(&buf, src); err != nil {
		t.Fatal(err)
	}
	events, err := ParseTaskEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3*src.Len() {
		t.Fatalf("events = %d, want %d", len(events), 3*src.Len())
	}
	// Reconstruct max-usage from the source (WriteTaskEvents only carries
	// the request; usage travels via the task_usage reduction).
	usage := make(map[int64]float64, src.Len())
	for _, j := range src.Jobs {
		usage[j.ID] = j.MaxMemFrac
	}
	back := JobsFromEvents(events, usage)
	if back.Len() != src.Len() {
		t.Fatalf("round trip lost jobs: %d vs %d", back.Len(), src.Len())
	}
	for i := range src.Jobs {
		a, b := src.Jobs[i], back.Jobs[i]
		if a.ID != b.ID || a.Submit != b.Submit || a.Duration != b.Duration {
			t.Fatalf("job %d timing mismatch:\n%+v\n%+v", i, a, b)
		}
		if a.AssignedMemFrac != b.AssignedMemFrac || a.MaxMemFrac != b.MaxMemFrac {
			t.Fatalf("job %d memory mismatch:\n%+v\n%+v", i, a, b)
		}
	}
	if back.OverAllocatorCount() != EvalOverAllocators {
		t.Fatalf("over-allocators = %d", back.OverAllocatorCount())
	}
}

func TestParseUsageCSV(t *testing.T) {
	in := "1,0.25\n42,0.01\n"
	m, err := ParseUsageCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m[1] != 0.25 || m[42] != 0.01 {
		t.Fatalf("usage = %v", m)
	}
	for _, bad := range []string{"x,0.5\n", "1,abc\n", "1,1.5\n", "1\n", "1,NaN\n"} {
		if _, err := ParseUsageCSV(strings.NewReader(bad)); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}
