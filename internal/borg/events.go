package borg

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
)

// Support for the original Google cluster trace format (Reiss & Wilkes,
// "Google cluster-usage traces: format + schema", 2011). The paper
// extracts per-job submission time, duration, assigned memory and maximal
// memory usage from the task_events and task_usage tables (§VI-B); this
// file implements a reader for the task_events schema and the join that
// produces replayable jobs, so users holding the real trace can feed it
// to the same harness the synthetic generator drives.
//
// task_events columns (all optional fields may be empty):
//
//	0 timestamp (µs)   1 missing info    2 job ID       3 task index
//	4 machine ID       5 event type      6 user         7 scheduling class
//	8 priority         9 CPU request    10 memory request (normalised)
//	11 disk request   12 different machines restriction
const taskEventColumns = 13

// TaskEventType is the event-type column of task_events.
type TaskEventType int

// Event types from the trace schema.
const (
	EventSubmit TaskEventType = iota // 0
	EventSchedule
	EventEvict
	EventFail
	EventFinish
	EventKill
	EventLost
	EventUpdatePending
	EventUpdateRunning
)

// TaskEvent is one row of the task_events table (the fields the §VI-B
// extraction needs).
type TaskEvent struct {
	Timestamp time.Duration // offset from trace start
	JobID     int64
	TaskIndex int64
	Type      TaskEventType
	// MemoryRequest is the normalised memory request (fraction of the
	// largest machine) — the paper's "assigned memory".
	MemoryRequest float64
}

// ParseTaskEvents reads a task_events CSV stream (headerless, as
// distributed). A row stamped exactly 2^63−1 µs is an event after the
// trace's window and is dropped, so a job that finishes after the window
// has no FINISH and JobsFromEvents skips it as still running at trace end.
// Every other timestamp beyond a Duration's range is refused.
func ParseTaskEvents(r io.Reader) ([]TaskEvent, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = taskEventColumns
	var out []TaskEvent
	for line := 1; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("borg: task_events line %d: %w", line, err)
		}
		// The published trace stamps an event after its window 2^63−1 µs.
		if us, err := strconv.ParseInt(rec[0], 10, 64); err == nil && us == math.MaxInt64 {
			continue
		}
		ev, err := parseTaskEvent(rec)
		if err != nil {
			return nil, fmt.Errorf("borg: task_events line %d: %w", line, err)
		}
		out = append(out, ev)
	}
}

func parseTaskEvent(rec []string) (TaskEvent, error) {
	ts, err := parseMicros("timestamp", rec[0])
	if err != nil {
		return TaskEvent{}, err
	}
	jobID, err := strconv.ParseInt(rec[2], 10, 64)
	if err != nil {
		return TaskEvent{}, fmt.Errorf("job ID: %w", err)
	}
	taskIdx := int64(0)
	if rec[3] != "" {
		if taskIdx, err = strconv.ParseInt(rec[3], 10, 64); err != nil {
			return TaskEvent{}, fmt.Errorf("task index: %w", err)
		}
	}
	evType, err := strconv.Atoi(rec[5])
	if err != nil {
		return TaskEvent{}, fmt.Errorf("event type: %w", err)
	}
	if evType < int(EventSubmit) || evType > int(EventUpdateRunning) {
		return TaskEvent{}, fmt.Errorf("event type %d out of range", evType)
	}
	memReq := 0.0
	if rec[10] != "" {
		if memReq, err = parseFraction("memory request", rec[10]); err != nil {
			return TaskEvent{}, err
		}
	}
	return TaskEvent{
		Timestamp:     ts,
		JobID:         jobID,
		TaskIndex:     taskIdx,
		Type:          TaskEventType(evType),
		MemoryRequest: memReq,
	}, nil
}

// JobsFromEvents reconstructs replayable jobs from a task_events stream
// the way §VI-B does: a job's submission time comes from its SUBMIT
// event, its duration from SCHEDULE→FINISH, and its assigned memory from
// the request column. maxUsage optionally supplies each job's maximal
// memory usage from the task_usage table (keyed by job ID); jobs without
// an entry fall back to their request (no over- or under-use).
//
// Jobs missing any of SUBMIT/SCHEDULE/FINISH (evicted, killed, lost or
// still running at trace end) are skipped, mirroring the paper's use of
// completed jobs only.
func JobsFromEvents(events []TaskEvent, maxUsage map[int64]float64) *Trace {
	type acc struct {
		submit, schedule, finish time.Duration
		hasSubmit, hasSchedule   bool
		hasFinish                bool
		memReq                   float64
	}
	jobs := make(map[int64]*acc)
	for _, ev := range events {
		// Aggregate per job; multi-task jobs take the earliest submit
		// and schedule, the latest finish and the largest request.
		a, ok := jobs[ev.JobID]
		if !ok {
			a = &acc{}
			jobs[ev.JobID] = a
		}
		switch ev.Type {
		case EventSubmit:
			if !a.hasSubmit || ev.Timestamp < a.submit {
				a.submit = ev.Timestamp
			}
			a.hasSubmit = true
			if ev.MemoryRequest > a.memReq {
				a.memReq = ev.MemoryRequest
			}
		case EventSchedule:
			if !a.hasSchedule || ev.Timestamp < a.schedule {
				a.schedule = ev.Timestamp
			}
			a.hasSchedule = true
		case EventFinish:
			if !a.hasFinish || ev.Timestamp > a.finish {
				a.finish = ev.Timestamp
			}
			a.hasFinish = true
		}
	}

	ids := make([]int64, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	tr := &Trace{}
	for _, id := range ids {
		a := jobs[id]
		if !a.hasSubmit || !a.hasSchedule || !a.hasFinish || a.finish <= a.schedule {
			continue
		}
		usage := a.memReq
		if u, ok := maxUsage[id]; ok {
			usage = u
		}
		j := Job{
			ID:              id,
			Submit:          a.submit,
			Duration:        a.finish - a.schedule,
			AssignedMemFrac: a.memReq,
			MaxMemFrac:      usage,
		}
		tr.Jobs = append(tr.Jobs, j)
		if end := j.Submit + j.Duration; end > tr.Horizon {
			tr.Horizon = end
		}
	}
	tr.sortBySubmit()
	return tr
}

// WriteTaskEvents renders a trace in the task_events schema: one SUBMIT
// and SCHEDULE at the job's submission offset and one FINISH at
// submission+duration. It lets the synthetic generator interoperate with
// tooling built for the original format.
func WriteTaskEvents(w io.Writer, t *Trace) error {
	cw := csv.NewWriter(w)
	write := func(ts time.Duration, jobID int64, evType TaskEventType, memReq float64) error {
		rec := make([]string, taskEventColumns)
		rec[0] = strconv.FormatInt(ts.Microseconds(), 10)
		rec[2] = strconv.FormatInt(jobID, 10)
		rec[3] = "0"
		rec[5] = strconv.Itoa(int(evType))
		if evType == EventSubmit {
			rec[10] = strconv.FormatFloat(memReq, 'g', 17, 64)
		}
		return cw.Write(rec)
	}
	for _, j := range t.Jobs {
		if err := write(j.Submit, j.ID, EventSubmit, j.AssignedMemFrac); err != nil {
			return fmt.Errorf("borg: writing SUBMIT for job %d: %w", j.ID, err)
		}
		if err := write(j.Submit, j.ID, EventSchedule, 0); err != nil {
			return fmt.Errorf("borg: writing SCHEDULE for job %d: %w", j.ID, err)
		}
		if err := write(j.Submit+j.Duration, j.ID, EventFinish, 0); err != nil {
			return fmt.Errorf("borg: writing FINISH for job %d: %w", j.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// UsageCSVColumns documents the minimal task_usage extraction this
// package consumes: job ID and maximal memory usage.
const UsageCSVColumns = 2

// ParseUsageCSV reads a two-column (job_id, max_memory_fraction) CSV —
// the reduction of the task_usage table the §VI-B extraction needs.
func ParseUsageCSV(r io.Reader) (map[int64]float64, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = UsageCSVColumns
	out := make(map[int64]float64)
	for line := 1; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("borg: usage line %d: %w", line, err)
		}
		id, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("borg: usage line %d job ID: %w", line, err)
		}
		frac, err := parseFraction("fraction", rec[1])
		if err != nil {
			return nil, fmt.Errorf("borg: usage line %d: %w", line, err)
		}
		out[id] = frac
	}
}
