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

// TestAllocateSectionPinned pins every allocation line of a run in which
// one request exceeds the free devices: it is denied with the plugin's
// error, and the requests before and after it are granted from the same
// pool.
func TestAllocateSectionPinned(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-allocate", "2560,8192,16000,1000"}, &out); err != nil {
		t.Fatal(err)
	}
	const want = `allocate   2560 pages for /kubepods/pod-0: ok, mounts /dev/isgx -> /dev/isgx (free 21376)
allocate   8192 pages for /kubepods/pod-1: ok, mounts /dev/isgx -> /dev/isgx (free 13184)
allocate  16000 pages for /kubepods/pod-2: DENIED (deviceplugin: insufficient EPC page devices: requested 16000, free 13184)
allocate   1000 pages for /kubepods/pod-3: ok, mounts /dev/isgx -> /dev/isgx (free 12184)
`
	_, section, ok := strings.Cut(out.String(), "sgx_nr_total_epc_pages = 23936\n")
	if !ok || section != want {
		t.Fatalf("allocate section:\n%s\nwant:\n%s", section, want)
	}
}
