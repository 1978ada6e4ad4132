package experiments

import (
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
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

	noSGX, err := ClassesMixedFleet(ClassesExpConfig{Seed: 9, SGXEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if noSGX.SGXUtilization != 0 {
		t.Fatalf("SGX utilization with no SGX jobs = %v, want 0", noSGX.SGXUtilization)
	}
}

// TestClassesMixedFleetDeterministic: same seed, same run — quantiles,
// preemption counters and drain time all reproduce exactly.
func TestClassesMixedFleetDeterministic(t *testing.T) {
	a, err := ClassesMixedFleet(ClassesExpConfig{Seed: 31, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClassesMixedFleet(ClassesExpConfig{Seed: 31, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.DrainTime != b.DrainTime || a.Violations != b.Violations {
		t.Fatalf("runs diverged: drain %v vs %v, violations %d vs %d",
			a.DrainTime, b.DrainTime, a.Violations, b.Violations)
	}
	for class, out := range a.PerClass {
		if out != b.PerClass[class] {
			t.Fatalf("class %s diverged: %+v vs %+v", class, out, b.PerClass[class])
		}
	}
	if a.DrainTime <= 0 || a.DrainTime > 2*time.Hour {
		t.Fatalf("implausible drain time %v", a.DrainTime)
	}
	// Golden values: the two runs above agree with each other whatever a
	// refactor does to both; these literals pin the schedule to every
	// earlier commit's.
	if want := 20*time.Minute + 10500*time.Millisecond; a.DrainTime != want {
		t.Fatalf("drain time = %v, want %v: the mixed-fleet schedule changed", a.DrainTime, want)
	}
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	golden := map[string]ClassOutcome{
		string(api.ClassLatencySensitive): {Jobs: 15, P50Wait: sec(5.5), P99Wait: sec(5.5), PreemptionsInflicted: 8, Victims: 9},
		string(api.ClassBatch):            {Jobs: 15, P50Wait: sec(65.5), P99Wait: sec(580.5)},
		string(api.ClassBestEffort):       {Jobs: 45, P50Wait: sec(5.5), P99Wait: sec(610.5), PreemptionsSuffered: 9},
	}
	for class, want := range golden {
		if got := a.PerClass[class]; got != want {
			t.Fatalf("class %s = %+v, want %+v: the mixed-fleet schedule changed", class, got, want)
		}
	}
	if len(a.PerClass) != len(golden) {
		t.Fatalf("run reports %d classes, golden has %d", len(a.PerClass), len(golden))
	}
}
