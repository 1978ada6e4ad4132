package main

import (
	"strconv"
	"strings"
	"testing"
)

// TestOutputStructure checks the walkthrough's table, not its bytes: its
// numbers are wall-clock. The header names the columns, there is one
// row per mode × schedulers × watchers cell in grid order (sync first),
// and every row bound the whole backlog.
func TestOutputStructure(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out.String(), "\n")
	header := -1
	for i, line := range lines {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "broker" {
			header = i
			break
		}
	}
	if header < 0 {
		t.Fatalf("no table header in output:\n%s", out.String())
	}
	if got, want := strings.Join(strings.Fields(lines[header]), " "),
		"broker schedulers watchers bound binds/sec drain meanbatch resyncs maxlag"; got != want {
		t.Fatalf("header %q, want %q", got, want)
	}
	var rows [][]string
	for _, line := range lines[header+1:] {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if f[0] != "sync" && f[0] != "async" {
			break
		}
		rows = append(rows, f)
	}
	var want []string
	for _, mode := range []string{"sync", "async"} {
		for _, s := range schedulers {
			for _, w := range watchers {
				want = append(want, mode+" "+strconv.Itoa(s)+" "+strconv.Itoa(w))
			}
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d (2 modes × %d schedulers × %d watchers):\n%s",
			len(rows), len(want), len(schedulers), len(watchers), out.String())
	}
	for i, f := range rows {
		if len(f) != 9 {
			t.Fatalf("row %d has %d columns, want 9: %q", i, len(f), f)
		}
		if cell := strings.Join(f[:3], " "); cell != want[i] {
			t.Fatalf("row %d is cell %q, want %q (grid order)", i, cell, want[i])
		}
		if f[3] != strconv.Itoa(backlog) {
			t.Fatalf("row %q bound %s pods, want the whole backlog %d", want[i], f[3], backlog)
		}
	}
}
