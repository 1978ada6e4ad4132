package main

import (
	"strings"
	"testing"
)

// TestRunAtDefaults runs the monitoring pipeline at its defaults: three
// pods on one SGX node, and Listing 1 answering for that node.
func TestRunAtDefaults(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"deployed 1 probe(s)",
		"Listing 1 (verbatim InfluxQL):",
		"nodename=sgx-1",
		"pod=enclave-0 node=sgx-1",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("sgx-probe printed %q, missing %q", out.String(), want)
		}
	}
}

// TestDriverCountersPrintSorted: the driver's sysfs counters come out in
// path order, so every run at the same flags prints the same bytes.
func TestDriverCountersPrintSorted(t *testing.T) {
	var first string
	for i := 0; i < 20; i++ {
		var out strings.Builder
		if err := run(nil, &out); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = out.String()
			free, total := strings.Index(first, "sgx_nr_free_pages = "), strings.Index(first, "sgx_nr_total_epc_pages = ")
			if free < 0 || total < 0 || free > total {
				t.Fatalf("driver counters out of path order:\n%s", first)
			}
		} else if got := out.String(); got != first {
			t.Fatalf("run %d printed\n%s\nrun 0 printed\n%s", i, got, first)
		}
	}
}

// TestHelpIsNotAnError: -h prints the usage alone and, as with the
// standard flag set, is not an error; an unknown flag still is.
func TestHelpIsNotAnError(t *testing.T) {
	var help strings.Builder
	if err := run([]string{"-h"}, &help); err != nil || help.Len() > 0 {
		t.Fatalf("sgx-probe -h = %v, printing %q to stdout", err, help.String())
	}
	var out strings.Builder
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Fatalf("sgx-probe -bogus succeeded, printing %q", out.String())
	}
}

// TestNonPositiveIntervalIsAnError: a probe period of zero or below is
// refused before anything runs, not silently replaced.
func TestNonPositiveIntervalIsAnError(t *testing.T) {
	for _, arg := range []string{"-interval=0s", "-interval=-10s"} {
		var out strings.Builder
		err := run([]string{arg}, &out)
		if err == nil || !strings.Contains(err.Error(), "-interval must be positive") {
			t.Fatalf("sgx-probe %s = %v, want the interval refused", arg, err)
		}
		if out.Len() > 0 {
			t.Fatalf("sgx-probe %s printed %q before refusing", arg, out.String())
		}
	}
}
