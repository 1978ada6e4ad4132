package main

import (
	"strings"
	"testing"
)

// TestDefaultRunAdvertisesUsableEPC: at the default 128 MiB EPC the plugin
// advertises one device per usable EPC page, 23 936 of them.
func TestDefaultRunAdvertisesUsableEPC(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	if want := "advertised devices: 23936 "; !strings.Contains(out.String(), want) {
		t.Fatalf("default run printed %q, want it to contain %q", out.String(), want)
	}
}

// TestNonPositiveEPCRefused: an EPC of zero or negative size is refused
// before any device is advertised.
func TestNonPositiveEPCRefused(t *testing.T) {
	for _, size := range []string{"-5", "0"} {
		var out strings.Builder
		if err := run([]string{"-epc-mib", size}, &out); err == nil {
			t.Fatalf("-epc-mib %s succeeded, printing %q", size, out.String())
		}
	}
}

// TestHelpIsNotAnError: -h prints the usage alone and, as with the
// standard flag set, is not an error; an unknown flag still is.
func TestHelpIsNotAnError(t *testing.T) {
	var help strings.Builder
	if err := run([]string{"-h"}, &help); err != nil || help.Len() > 0 {
		t.Fatalf("sgx-plugin -h = %v, printing %q to stdout", err, help.String())
	}
	var out strings.Builder
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Fatalf("sgx-plugin -bogus succeeded, printing %q", out.String())
	}
}
