package main

import (
	"strings"
	"testing"
)

// TestCompareRefusesFigureFlags: -compare always runs seeds 1-10 and
// renders no figure, so a figure-mode flag set beside it — even to its
// default value — is an error naming that flag, returned before any
// comparison starts. The revision does not exist, so a comparison that
// did start would fail at once with another error.
func TestCompareRefusesFigureFlags(t *testing.T) {
	const rev = "no-such-revision"
	for _, extra := range [][]string{
		{"-seed", "2"},
		{"-seed", "1"},
		{"-figs", "fig3"},
		{"-rows", "5"},
		{"-cpuprofile", "cpu.out"},
		{"-memprofile", "mem.out"},
	} {
		err := run(append([]string{"-compare", rev}, extra...))
		if want := extra[0] + " does not apply with -compare"; err == nil || err.Error() != want {
			t.Errorf("run(-compare %s %s): err = %v, want %q", rev, strings.Join(extra, " "), err, want)
		}
	}
	if err := run([]string{"-compare", rev}); err == nil || strings.Contains(err.Error(), "does not apply") {
		t.Errorf("run(-compare %s) alone: err = %v, want the revision refused", rev, err)
	}
}
