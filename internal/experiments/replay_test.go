package experiments

import (
	"sort"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/resource"
)

func evalTrace(seed int64) *borg.Trace {
	return borg.NewGenerator(seed).EvalSlice()
}

func TestReplayAllStandardCompletes(t *testing.T) {
	tb, err := NewTestbed(Paper(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Replay(ReplayConfig{Trace: evalTrace(1), SGXRatio: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("replay did not complete; makespan %v, failed %d", res.Makespan, res.Failed)
	}
	if len(res.Outcomes) != borg.EvalJobCount {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	// Standard jobs suffer no EPC enforcement: none should fail.
	if res.Failed != 0 {
		t.Fatalf("failed jobs = %d, want 0", res.Failed)
	}
	// "The run that only uses standard memory experiences relatively low
	// waiting times" (§VI-E): median well under a minute.
	waits := res.WaitingSeconds(nil)
	if len(waits) != borg.EvalJobCount {
		t.Fatalf("started jobs = %d", len(waits))
	}
	med := median(waits)
	if med > 60 {
		t.Fatalf("median wait = %vs, want low", med)
	}
	// Makespan barely exceeds the 1 h trace horizon.
	if res.Makespan > 90*time.Minute {
		t.Fatalf("makespan = %v", res.Makespan)
	}
}

func TestReplayAllSGXCompletesWithContention(t *testing.T) {
	tb, err := NewTestbed(Paper(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Replay(ReplayConfig{Trace: evalTrace(1), SGXRatio: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("replay did not complete; makespan %v", res.Makespan)
	}
	// Enforcement kills the over-allocating SGX jobs (§VI-F: 44 jobs).
	if res.Failed != borg.EvalOverAllocators {
		t.Fatalf("failed = %d, want %d over-allocators killed", res.Failed, borg.EvalOverAllocators)
	}
	// Contention: the all-SGX run overloads the 187 MiB of cluster EPC
	// (§VI-E: "the pure SGX run waiting times go off the chart"), so the
	// mean wait is substantial and the tail is long.
	waits := res.WaitingSeconds(nil)
	if mean(waits) < 30 {
		t.Fatalf("mean SGX wait = %vs, expected heavy contention", mean(waits))
	}
	cdf := newSortedCopy(waits)
	p95 := cdf[len(cdf)*95/100]
	if p95 < 120 {
		t.Fatalf("p95 wait = %vs, expected a long tail", p95)
	}
	// The run still drains: makespan beyond the hour but bounded.
	if res.Makespan < 61*time.Minute || res.Makespan > 4*time.Hour {
		t.Fatalf("makespan = %v, want overload that drains", res.Makespan)
	}
}

func TestReplayMaliciousBlocksThroughput(t *testing.T) {
	mk := func(enforce bool) *ReplayResult {
		cfg := Paper(0)
		cfg.Stack.NoEnforcement = !enforce
		tb, err := NewTestbed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tb.Replay(ReplayConfig{
			Trace:                evalTrace(2),
			SGXRatio:             1,
			Seed:                 2,
			MaliciousPerSGXNode:  1,
			MaliciousEPCFraction: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	enforced := mk(true)
	open := mk(false)
	// With enforcement the malicious pods die instantly: honest waits
	// must be clearly better than with limits disabled (Fig. 11).
	if !enforced.Completed {
		t.Fatal("enforced run did not complete")
	}
	mEnforced := mean(enforced.WaitingSeconds(nil))
	mOpen := mean(open.WaitingSeconds(nil))
	if mEnforced >= mOpen {
		t.Fatalf("enforcement did not help: %v >= %v", mEnforced, mOpen)
	}
}

func TestReplaySpreadPolicy(t *testing.T) {
	cfg := Paper(0)
	cfg.Scheduler.Policy = core.Spread{}
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Replay(ReplayConfig{Trace: evalTrace(3), SGXRatio: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("spread replay incomplete; makespan %v", res.Makespan)
	}
	// Both kinds of jobs ran.
	sgxTrue, sgxFalse := true, false
	if len(res.WaitingSeconds(&sgxTrue)) == 0 || len(res.WaitingSeconds(&sgxFalse)) == 0 {
		t.Fatal("50% split did not produce both job kinds")
	}
}

func TestReplayPendingSeriesSampled(t *testing.T) {
	tb, err := NewTestbed(Paper(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Replay(ReplayConfig{Trace: evalTrace(4), SGXRatio: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PendingSeries) < 100 {
		t.Fatalf("pending series = %d points", len(res.PendingSeries))
	}
	// Some samples during the replay hour must show queued EPC demand.
	any := false
	for _, pt := range res.PendingSeries {
		if pt.RequestedEPCBytes > 0 {
			any = true
			break
		}
	}
	if !any {
		t.Fatal("no pending EPC demand ever sampled")
	}
}

func TestReplayValidation(t *testing.T) {
	for name, cfg := range map[string]ReplayConfig{
		"empty trace":             {Trace: &borg.Trace{}},
		"SGX ratio above 1":       {Trace: evalTrace(1), SGXRatio: 1.5},
		"negative malicious pods": {Trace: evalTrace(1), MaliciousPerSGXNode: -3},
		"negative EPC fraction":   {Trace: evalTrace(1), MaliciousPerSGXNode: 1, MaliciousEPCFraction: -0.5},
		"EPC fraction above 1":    {Trace: evalTrace(1), MaliciousPerSGXNode: 1, MaliciousEPCFraction: 1.5},
	} {
		tb, err := NewTestbed(Paper(0))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Replay(cfg); err == nil {
			t.Fatalf("%s accepted", name)
		}
		// A refused replay ran nothing and left nothing running.
		if n := len(tb.Srv.ListPods(nil)); n != 0 {
			t.Fatalf("%s: %d pods created before the refusal", name, n)
		}
		if tb.Clk.Step() {
			t.Fatalf("%s: the testbed is still running after the refusal", name)
		}
	}
}

func TestDesignateSGXRatioExact(t *testing.T) {
	for _, ratio := range []float64{0, 0.25, 0.5, 0.75, 1} {
		marks := designateSGX(663, ratio, 9)
		n := 0
		for _, m := range marks {
			if m {
				n++
			}
		}
		want := int(ratio*663 + 0.5)
		if n != want {
			t.Fatalf("ratio %v: %d marked, want %d", ratio, n, want)
		}
	}
}

func TestTracePodScaling(t *testing.T) {
	job := borg.Job{ID: 7, Duration: time.Minute, AssignedMemFrac: 0.1, MaxMemFrac: 0.08}
	sgxPod := tracePod(job, true, false)
	if !sgxPod.IsSGX() {
		t.Fatal("SGX pod not SGX")
	}
	wantPages := (borg.SGXMemBytes(0.1) + 4095) / 4096
	if got := sgxPod.TotalRequests().Get(resource.EPCPages); got != wantPages {
		t.Fatalf("EPC request = %d, want %d", got, wantPages)
	}
	stdPod := tracePod(job, false, false)
	if stdPod.IsSGX() {
		t.Fatal("standard pod is SGX")
	}
	if got := stdPod.TotalRequests().Get(resource.Memory); got != borg.StandardMemBytes(0.1) {
		t.Fatalf("memory request = %d", got)
	}
	if stdPod.Spec.Containers[0].Workload.AllocBytes != borg.StandardMemBytes(0.08) {
		t.Fatal("workload allocates advertised, want maximal usage")
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func newSortedCopy(xs []float64) []float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := newSortedCopy(xs)
	return cp[len(cp)/2]
}

var _ = api.PodSucceeded
