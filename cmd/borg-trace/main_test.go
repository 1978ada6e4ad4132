package main

import (
	"strings"
	"testing"
)

// TestHelpPrintsUsage: -h, -help and help print the three subcommands'
// usage and succeed; an unknown subcommand or none at all still fails.
func TestHelpPrintsUsage(t *testing.T) {
	for _, arg := range []string{"-h", "-help", "--help", "help"} {
		var out strings.Builder
		if err := run([]string{arg}, &out); err != nil {
			t.Fatalf("borg-trace %s: %v", arg, err)
		}
		for _, sub := range []string{"borg-trace stats", "borg-trace gen", "borg-trace day"} {
			if !strings.Contains(out.String(), sub) {
				t.Fatalf("borg-trace %s printed %q, missing %q", arg, out.String(), sub)
			}
		}
	}
	for _, argv := range [][]string{{"bogus"}, nil} {
		var out strings.Builder
		if err := run(argv, &out); err == nil {
			t.Fatalf("borg-trace %v succeeded", argv)
		}
	}
}

// TestStatsSummary pins `borg-trace stats` for seed 1: the §VI-B slice's
// counts, and its demand scaled by the borg package's SGX (93.5 MiB) and
// standard (32 GiB) memory scales.
func TestStatsSummary(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"stats", "-seed", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	const want = `evaluation slice (§VI-B): window 1h48m0s-2h48m0s sampled 1/1200
jobs:            663 (paper: 663)
over-allocators: 44 (paper: 44)
total duration:  20h17m0s (the Fig. 10 'Trace' bar)
durations:       median 86s, max 300s (paper: all <= 300s)
memory fraction: median 0.067, max 0.240
SGX demand:      median 6.3 MiB, max 22.4 MiB (x 93.5 MiB, §VI-B)
std demand:      median 2.15 GiB, max 7.68 GiB (x 32 GiB, §VI-B)
`
	if out.String() != want {
		t.Fatalf("borg-trace stats printed\n%s\nwant\n%s", out.String(), want)
	}
}
