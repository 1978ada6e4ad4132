package borg

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// The Borg readers parse files from outside the program: a trace written
// by cmd/borg-trace, or the published task_events and task_usage tables.
// Run a target with
//
//	go test -run '^$' -fuzz '^FuzzReadCSV$' -fuzztime 30s ./internal/borg
//
// (likewise FuzzParseTaskEvents and FuzzParseUsageCSV). Crashers are kept
// under testdata/fuzz/<target> and replayed by every plain go test.

// generated renders the first jobs of the seed-1 evaluation slice — the
// head of what `borg-trace gen` writes — in one of the package's formats.
// The whole slice would make every fuzz execution hundreds of times slower.
func generated(t testing.TB, write func(io.Writer, *Trace) error) string {
	tr := NewGenerator(1).EvalSlice()
	tr.Jobs = tr.Jobs[:8]
	var buf bytes.Buffer
	if err := write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// FuzzReadCSV: ReadCSV never panics, every job it accepts has times a
// Duration holds and fractions in [0, 1], and WriteCSV followed by ReadCSV
// returns an identical trace.
func FuzzReadCSV(f *testing.F) {
	f.Add(generated(f, WriteCSV))
	for _, seed := range []string{
		csvHeaderLine,
		csvHeaderLine + "1,0,1000,0.25,0.5\n2,5000000,300000000,0,1\n",
		csvHeaderLine + "7,10,10,1e-300,-0\n7,10,10,0.1,0.1\n",
		csvHeaderLine + "1,0,1000,NaN,0.5\n",
		csvHeaderLine + "1,9300000000000000,1000,0.5,0.5\n",
		csvHeaderLine + "1,0,9300000000000000,0.5,0.5\n",
		csvHeaderLine + "1,9223372036854775,0,0.5,0.5\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, j := range tr.Jobs {
			if j.Submit < 0 || j.Duration < 0 || j.Submit+j.Duration > tr.Horizon ||
				!inUnit(j.AssignedMemFrac) || !inUnit(j.MaxMemFrac) {
				t.Fatalf("ReadCSV accepted job %+v (horizon %v)", j, tr.Horizon)
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tr); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		written := buf.String()
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("ReadCSV refuses what WriteCSV wrote: %v\n%s", err, written)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("round trip changed the trace:\n%+v\n%+v", tr, back)
		}
	})
}

// FuzzParseTaskEvents: ParseTaskEvents never panics, and every event it
// accepts has a timestamp a Duration holds, a known type and a memory
// request in [0, 1]. JobsFromEvents takes whatever it accepts.
func FuzzParseTaskEvents(f *testing.F) {
	f.Add(generated(f, WriteTaskEvents))
	for _, seed := range []string{
		"0,,100,0,,0,user1,2,9,0.5,0.125,0.01,\n1000000,,100,0,m1,1,user1,2,9,,,,\n61000000,,100,0,m1,4,user1,2,9,,,,\n",
		"0,,100,0,,0,u,2,9,,NaN,,\n",
		"9300000000000000,,100,0,,0,u,2,9,,,,\n",
		"9223372036854775,,100,,,8,u,2,9,,1,,\n",
		"0,,100,0,,0,u,2,9,,0.5,,\n1000000,,100,0,m1,1,u,2,9,,,,\n9223372036854775807,,100,0,m1,4,u,2,9,,,,\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		evs, err := ParseTaskEvents(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, ev := range evs {
			if ev.Timestamp < 0 || ev.Type < EventSubmit || ev.Type > EventUpdateRunning || !inUnit(ev.MemoryRequest) {
				t.Fatalf("ParseTaskEvents accepted %+v", ev)
			}
		}
		JobsFromEvents(evs, nil)
	})
}

// FuzzParseUsageCSV: ParseUsageCSV never panics, and every fraction it
// accepts is in [0, 1].
func FuzzParseUsageCSV(f *testing.F) {
	for _, seed := range []string{"1,0.25\n42,0.01\n", "1,NaN\n", "-3,1\n3,0\n3,-0\n", "1,1e-400\n"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		usage, err := ParseUsageCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		for id, frac := range usage {
			if !inUnit(frac) {
				t.Fatalf("ParseUsageCSV accepted job %d at fraction %g", id, frac)
			}
		}
	})
}

func inUnit(f float64) bool { return f >= 0 && f <= 1 }
