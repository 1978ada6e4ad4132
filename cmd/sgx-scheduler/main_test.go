package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestSGXRatioDesignatesCeilShare: at ratio p/q, exactly ⌈n·p/q⌉ of the
// first n jobs are SGX jobs, for every n, and ratio 1/k designates
// job-000, job-k, … as the every-k-th rule did.
func TestSGXRatioDesignatesCeilShare(t *testing.T) {
	for _, tc := range []struct {
		r    float64
		p, q int
	}{{0.1, 1, 10}, {0.3, 3, 10}, {0.5, 1, 2}, {0.7, 7, 10}, {1, 1, 1}} {
		got := 0
		for n := 1; n <= 663; n++ {
			if isSGXJob(n-1, tc.r) {
				got++
			}
			if want := (n*tc.p + tc.q - 1) / tc.q; got != want {
				t.Fatalf("ratio %v: %d of the first %d jobs are SGX, want %d", tc.r, got, n, want)
			}
		}
		if tc.p == 1 {
			for i := 0; i < 100; i++ {
				if isSGXJob(i, tc.r) != (i%tc.q == 0) {
					t.Fatalf("ratio 1/%d: job %d SGX = %v, want every %d-th job from job-000", tc.q, i, isSGXJob(i, tc.r), tc.q)
				}
			}
		}
	}
}

// TestRunSubmitsRatioShare runs the command at each ratio and reads the
// SGX count it announces; a ratio outside [0, 1] and a negative job count
// are refused before anything runs.
func TestRunSubmitsRatioShare(t *testing.T) {
	for _, tc := range []struct {
		ratio string
		want  int
	}{{"0.1", 1}, {"0.3", 3}, {"0.5", 5}, {"0.7", 7}, {"1", 10}} {
		var out strings.Builder
		if err := run([]string{"-jobs", "10", "-sgx-ratio", tc.ratio}, &out); err != nil {
			t.Fatalf("-sgx-ratio %s: %v", tc.ratio, err)
		}
		if head := fmt.Sprintf("submitting 10 jobs (%d SGX)", tc.want); !strings.HasPrefix(out.String(), head) {
			t.Fatalf("-sgx-ratio %s printed %q, want it to start %q", tc.ratio, out.String(), head)
		}
	}
	for _, args := range [][]string{
		{"-sgx-ratio", "2"},
		{"-sgx-ratio", "-0.5"},
		{"-jobs", "-3"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Fatalf("sgx-scheduler %v succeeded, printing %q", args, out.String())
		}
	}
}

// TestJobsArriveAtTheirTraceOffsets: each job is submitted at its trace
// offset, so with -jobs 10 the printed waits differ from job to job. Were
// every job submitted at t = 0, each would wait for the first pass and
// all ten would print the same wait.
func TestJobsArriveAtTheirTraceOffsets(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-jobs", "10"}, &out); err != nil {
		t.Fatal(err)
	}
	waits := map[string]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && strings.HasPrefix(f[0], "job-") {
			waits[f[3]] = true
		}
	}
	if len(waits) < 2 {
		t.Fatalf("the ten jobs print %d distinct waits, want them to differ:\n%s", len(waits), out.String())
	}
}

// TestHelpIsNotAnError: -h prints the usage alone and, as with the
// standard flag set, is not an error; an unknown flag still is.
func TestHelpIsNotAnError(t *testing.T) {
	var help strings.Builder
	if err := run([]string{"-h"}, &help); err != nil || help.Len() > 0 {
		t.Fatalf("sgx-scheduler -h = %v, printing %q to stdout", err, help.String())
	}
	var out strings.Builder
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Fatalf("sgx-scheduler -bogus succeeded, printing %q", out.String())
	}
}
