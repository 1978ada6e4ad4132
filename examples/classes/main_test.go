package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/output.golden from this run")

// TestOutputGolden pins the walkthrough's whole output: the per-class
// waits and preemption ledger, the drain time and the SGX utilisation all
// follow from the seeded fleet on the simulated clock, so any change to
// them is a change in behaviour. Run with -update to accept a new output.
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
