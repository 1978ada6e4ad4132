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
