package borg

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV schema: a flattened subset of the Borg task_events table (Reiss et
// al., "Google cluster-usage traces: format + schema") carrying exactly
// the four fields the paper extracts per job (§VI-B), keyed by job ID.
// WriteCSV emits this header line, then one record per job in trace order:
//
//	job_id, submit_us, duration_us, assigned_mem_frac, max_mem_frac
//
// The ID is decimal. Submission and duration are whole microseconds, as in
// the original trace; submission counts from the trace's start (the
// window's start for the evaluation slice). The two memory fractions are
// normalised to the largest machine, as in the original trace, and
// written with 17 significant digits, so they read back exactly.
var csvHeader = []string{"job_id", "submit_us", "duration_us", "assigned_mem_frac", "max_mem_frac"}

// WriteCSV encodes the trace in the schema above.
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
