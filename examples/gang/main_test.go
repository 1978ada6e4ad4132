package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/output.golden from this run")

// TestOutputGolden pins the walkthrough's whole output: the drain times,
// gang commits, permit timeouts and time-to-full-gang of the 1-, 2- and
// 4-scheduler fleets all follow from the seeded backlog on the simulated
// clock, so any change to them is a change in behaviour. Run with -update
// to accept a new output.
func TestOutputGolden(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "output.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Fatalf("output differs from %s (rerun with -update to accept):\n--- got\n%s--- want\n%s", golden, out.String(), want)
	}
}
