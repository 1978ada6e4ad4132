package experiments

import (
	"fmt"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/golden"
)

// TestClassesMixedFleetOrdering is the acceptance run for the workload
// classes: on a contended §VI-A fleet, latency-sensitive p99 wait must
// land strictly below both batch and best-effort p99, and class routing
// must never breach node capacity.
func TestClassesMixedFleetOrdering(t *testing.T) {
	res, err := ClassesMixedFleet(ClassesExpConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("mixed fleet did not drain within the horizon (took %v)", res.DrainTime)
	}
	if res.Violations != 0 {
		t.Fatalf("capacity violations = %d, want 0 — class routing must never oversubscribe", res.Violations)
	}

	ls := res.PerClass[string(api.ClassLatencySensitive)]
	batch := res.PerClass[string(api.ClassBatch)]
	be := res.PerClass[string(api.ClassBestEffort)]
	for name, out := range map[string]ClassOutcome{"latency-sensitive": ls, "batch": batch, "best-effort": be} {
		if out.Jobs == 0 {
			t.Fatalf("class %s saw no jobs: %+v", name, res.PerClass)
		}
	}
	if !(ls.P99Wait < batch.P99Wait) {
		t.Errorf("latency-sensitive p99 wait %v is not strictly below batch p99 %v", ls.P99Wait, batch.P99Wait)
	}
	if !(ls.P99Wait < be.P99Wait) {
		t.Errorf("latency-sensitive p99 wait %v is not strictly below best-effort p99 %v", ls.P99Wait, be.P99Wait)
	}
	// The filler tier absorbs the evictions; the latency tier inflicts
	// them and never suffers any.
	if ls.PreemptionsSuffered != 0 {
		t.Errorf("latency-sensitive jobs were preempted %d times, want 0", ls.PreemptionsSuffered)
	}
	if be.PreemptionsInflicted != 0 {
		t.Errorf("best-effort inflicted %d preemptions, want 0 (class gate off)", be.PreemptionsInflicted)
	}
}

// TestClassesMixedFleetSGXUtilization: the SGX wave actually exercises
// the enclave nodes — EPC commitment integrates to a nonzero fraction,
// and stays a fraction.
func TestClassesMixedFleetSGXUtilization(t *testing.T) {
	res, err := ClassesMixedFleet(ClassesExpConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.SGXUtilization <= 0 || res.SGXUtilization > 1 {
		t.Fatalf("SGX utilization = %v, want in (0, 1]", res.SGXUtilization)
	}
	// Bit for bit: the integral is a float sum in event order.
	if want := 0.016149112166106726; res.SGXUtilization != want {
		t.Fatalf("SGX utilization = %v, want %v", res.SGXUtilization, want)
	}

	noSGX, err := ClassesMixedFleet(ClassesExpConfig{Seed: 9, SGXEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if noSGX.SGXUtilization != 0 {
		t.Fatalf("SGX utilization with no SGX jobs = %v, want 0", noSGX.SGXUtilization)
	}
}

// TestClassesMixedFleetDeterministic: same seed, same run — the watch
// stream, quantiles, preemption counters and drain time all reproduce
// exactly, run to run and (through the literals) commit to commit. The
// sharded-with-preemption fleets are the deterministic runs in which a
// member's view freshness after a preemption attempt could move a
// placement, so those fleet sizes pin the whole stream; the single
// scheduler is the baseline beside them.
func TestClassesMixedFleetDeterministic(t *testing.T) {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	for _, tc := range []struct {
		shards   int
		drain    time.Duration
		perClass map[string]ClassOutcome
		digest   string
		sgxUtil  float64
	}{
		{
			shards: 1, drain: sec(20*60 + 10.5), digest: "7347161a6e29ce71", sgxUtil: 0.010235057380054646,
			perClass: map[string]ClassOutcome{
				string(api.ClassLatencySensitive): {Jobs: 15, P50Wait: sec(5.5), P99Wait: sec(5.5), PreemptionsInflicted: 7, Victims: 7},
				string(api.ClassBatch):            {Jobs: 15, P50Wait: sec(55.5), P99Wait: sec(130.5)},
				string(api.ClassBestEffort):       {Jobs: 45, P50Wait: sec(5.5), P99Wait: sec(610.5), PreemptionsSuffered: 7},
			},
		},
		{
			shards: 2, drain: sec(20*60 + 10.5), digest: "fb20c3694925555b", sgxUtil: 0.010235057380054646,
			perClass: map[string]ClassOutcome{
				string(api.ClassLatencySensitive): {Jobs: 15, P50Wait: sec(5.5), P99Wait: sec(5.5), PreemptionsInflicted: 8, Victims: 9},
				string(api.ClassBatch):            {Jobs: 15, P50Wait: sec(65.5), P99Wait: sec(580.5)},
				string(api.ClassBestEffort):       {Jobs: 45, P50Wait: sec(5.5), P99Wait: sec(610.5), PreemptionsSuffered: 9},
			},
		},
		{
			shards: 4, drain: sec(20*60 + 15.5), digest: "14036b86cdced5fd", sgxUtil: 0.010192955128388442,
			perClass: map[string]ClassOutcome{
				string(api.ClassLatencySensitive): {Jobs: 15, P50Wait: sec(5.5), P99Wait: sec(5.5), PreemptionsInflicted: 8, Victims: 8},
				string(api.ClassBatch):            {Jobs: 15, P50Wait: sec(70.5), P99Wait: sec(585.5)},
				string(api.ClassBestEffort):       {Jobs: 45, P50Wait: sec(10.5), P99Wait: sec(610.5), PreemptionsSuffered: 8},
			},
		},
	} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			run := func() (ClassesExpResult, []string) {
				var stream []string
				res, err := ClassesMixedFleet(ClassesExpConfig{Seed: 31, Shards: tc.shards, tap: func(ev apiserver.WatchEvent) {
					line := fmt.Sprintf("rev=%d type=%d", ev.Rev, ev.Type)
					if ev.Pod != nil {
						line += fmt.Sprintf(" pod=%s node=%s phase=%s reason=%q",
							ev.Pod.Name, ev.Pod.Spec.NodeName, ev.Pod.Status.Phase, ev.Pod.Status.Reason)
					}
					if ev.Node != nil {
						line += " node=" + ev.Node.Name
					}
					stream = append(stream, line)
				}})
				if err != nil {
					t.Fatal(err)
				}
				return res, stream
			}
			a, streamA := run()
			b, streamB := run()
			if a.DrainTime != b.DrainTime || a.Violations != b.Violations {
				t.Fatalf("runs diverged: drain %v vs %v, violations %d vs %d",
					a.DrainTime, b.DrainTime, a.Violations, b.Violations)
			}
			for class, out := range a.PerClass {
				if out != b.PerClass[class] {
					t.Fatalf("class %s diverged: %+v vs %+v", class, out, b.PerClass[class])
				}
			}
			if len(streamA) != len(streamB) {
				t.Fatalf("event counts differ: %d vs %d", len(streamA), len(streamB))
			}
			for i := range streamA {
				if streamA[i] != streamB[i] {
					t.Fatalf("event %d differs:\nrun1: %s\nrun2: %s", i, streamA[i], streamB[i])
				}
			}
			// Golden values: the two runs above agree with each other
			// whatever a refactor does to both; these literals pin the
			// schedule to every earlier commit's.
			if a.DrainTime != tc.drain {
				t.Fatalf("drain time = %v, want %v: the mixed-fleet schedule changed", a.DrainTime, tc.drain)
			}
			if a.SGXUtilization != tc.sgxUtil {
				t.Fatalf("SGX utilization = %v, want %v", a.SGXUtilization, tc.sgxUtil)
			}
			for class, want := range tc.perClass {
				if got := a.PerClass[class]; got != want {
					t.Fatalf("class %s = %+v, want %+v: the mixed-fleet schedule changed", class, got, want)
				}
			}
			if len(a.PerClass) != len(tc.perClass) {
				t.Fatalf("run reports %d classes, golden has %d", len(a.PerClass), len(tc.perClass))
			}
			if got := golden.StreamDigest(streamA); got != tc.digest {
				t.Fatalf("event stream digest = %s, want %s (%d events): the mixed-fleet schedule changed",
					got, tc.digest, len(streamA))
			}
		})
	}
}
