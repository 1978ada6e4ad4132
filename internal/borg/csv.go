package borg

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// CSV schema: a flattened subset of the Borg task_events table (Reiss et
// al., "Google cluster-usage traces: format + schema") carrying exactly
// the four fields the paper extracts per job (§VI-B), keyed by job ID:
//
//	job_id, submit_us, duration_us, assigned_mem_frac, max_mem_frac
//
// Timestamps are microseconds since trace start, as in the original
// trace; memory is normalised to the largest machine, as in the original
// trace.
var csvHeader = []string{"job_id", "submit_us", "duration_us", "assigned_mem_frac", "max_mem_frac"}

// WriteCSV encodes the trace.
func WriteCSV(w io.Writer, t *Trace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("borg: writing header: %w", err)
	}
	for _, j := range t.Jobs {
		rec := []string{
			strconv.FormatInt(j.ID, 10),
			strconv.FormatInt(j.Submit.Microseconds(), 10),
			strconv.FormatInt(j.Duration.Microseconds(), 10),
			strconv.FormatFloat(j.AssignedMemFrac, 'g', 17, 64),
			strconv.FormatFloat(j.MaxMemFrac, 'g', 17, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("borg: writing job %d: %w", j.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV decodes a trace written by WriteCSV.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("borg: reading header: %w", err)
	}
	for i, want := range csvHeader {
		if header[i] != want {
			return nil, fmt.Errorf("borg: bad header column %d: %q (want %q)", i, header[i], want)
		}
	}
	tr := &Trace{}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("borg: line %d: %w", line, err)
		}
		j, err := parseRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("borg: line %d: %w", line, err)
		}
		tr.Jobs = append(tr.Jobs, j)
		if end := j.Submit + j.Duration; end > tr.Horizon {
			tr.Horizon = end
		}
	}
	tr.sortBySubmit()
	return tr, nil
}

func parseRecord(rec []string) (Job, error) {
	id, err := strconv.ParseInt(rec[0], 10, 64)
	if err != nil {
		return Job{}, fmt.Errorf("job_id: %w", err)
	}
	submit, err := parseMicros("submit_us", rec[1])
	if err != nil {
		return Job{}, err
	}
	dur, err := parseMicros("duration_us", rec[2])
	if err != nil {
		return Job{}, err
	}
	if submit > math.MaxInt64-dur {
		return Job{}, fmt.Errorf("job ends past what a Duration holds (submit %v, duration %v)", submit, dur)
	}
	assigned, err := parseFraction("assigned_mem_frac", rec[3])
	if err != nil {
		return Job{}, err
	}
	maxFrac, err := parseFraction("max_mem_frac", rec[4])
	if err != nil {
		return Job{}, err
	}
	return Job{
		ID:              id,
		Submit:          submit,
		Duration:        dur,
		AssignedMemFrac: assigned,
		MaxMemFrac:      maxFrac,
	}, nil
}

// parseMicros reads a trace's microsecond count as a Duration. A negative
// count, or one past what a Duration holds (math.MaxInt64/1000 µs), is
// refused: converting it would wrap.
func parseMicros(field, s string) (time.Duration, error) {
	us, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", field, err)
	}
	if us < 0 || us > math.MaxInt64/1000 {
		return 0, fmt.Errorf("%s %d out of [0, %d] µs", field, us, int64(math.MaxInt64/1000))
	}
	return time.Duration(us) * time.Microsecond, nil
}

// parseFraction reads a memory fraction and refuses one outside [0, 1].
// The test is written so that NaN, which fails every comparison, fails it.
func parseFraction(field, s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", field, err)
	}
	if !(f >= 0 && f <= 1) {
		return 0, fmt.Errorf("%s %g out of [0,1]", field, f)
	}
	return f, nil
}
