package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/output.golden from this run")

// TestOutputGolden pins the default run's whole output: the 663-job
// slice replayed through the public ReplayBorgTrace on the §VI-A testbed,
// whose makespan, failures, wait percentiles, turnaround and pending-EPC
// peak follow from the seeded trace on the simulated clock, so any change
// to them is a change in behaviour. Run with -update to accept a new
// output.
func TestOutputGolden(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err != nil {
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

// TestRunArgs: an unknown flag, an unknown policy and a negative EPC size
// are errors, not a replay; -h prints the usage alone and, as with the
// standard flag set, is not an error.
func TestRunArgs(t *testing.T) {
	var help strings.Builder
	if err := run([]string{"-h"}, &help); err != nil || help.Len() > 0 {
		t.Fatalf("trace-replay -h = %v, printing %q to stdout", err, help.String())
	}
	for _, args := range [][]string{
		{"-bogus"},
		{"-policy", "round-robin"},
		{"-epc-mib", "-1"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Fatalf("trace-replay %v succeeded, printing %q", args, out.String())
		}
	}
}
