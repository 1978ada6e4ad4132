package experiments

import "testing"

func TestObservabilityCleanRun(t *testing.T) {
	res, err := Observability(ObservabilityConfig{Seed: 7, JobsPerClass: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("telemetry invariants broken:\n%v", res.Violations)
	}
	if !res.Completed {
		t.Fatalf("workload did not drain within the horizon (%s)", res.DrainTime)
	}
	if res.BindsObserved < res.Jobs {
		t.Fatalf("binds observed %d < jobs %d", res.BindsObserved, res.Jobs)
	}
	if res.BindsObserved != 48 || res.RunsObserved != 48 {
		t.Fatalf("binds / runs observed = %d / %d, want 48 / 48", res.BindsObserved, res.RunsObserved)
	}
	if res.Passes == 0 || res.Traces == 0 || res.DetailedTraces == 0 {
		t.Fatalf("instrumentation silent: passes=%d traces=%d detailed=%d",
			res.Passes, res.Traces, res.DetailedTraces)
	}
	for _, label := range []string{"latency-sensitive", "batch", "best-effort"} {
		o := res.PerClass[label]
		if o.Binds == 0 {
			t.Fatalf("class %s bound nothing", label)
		}
		if o.P99Queue < o.P50Queue {
			t.Fatalf("class %s: p99 %.3fs < p50 %.3fs", label, o.P99Queue, o.P50Queue)
		}
	}
}

func TestObservabilityDeterministic(t *testing.T) {
	a, err := Observability(ObservabilityConfig{Seed: 11, JobsPerClass: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Observability(ObservabilityConfig{Seed: 11, JobsPerClass: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock timings differ run to run; the simulated outcomes and
	// event-derived counts must not.
	if a.BindsObserved != b.BindsObserved || a.RunsObserved != b.RunsObserved ||
		a.Passes != b.Passes || a.DrainTime != b.DrainTime {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.BindsObserved != 36 || a.RunsObserved != 36 {
		t.Fatalf("binds / runs observed = %d / %d, want 36 / 36", a.BindsObserved, a.RunsObserved)
	}
}
