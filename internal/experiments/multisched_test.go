package experiments

import (
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/apiserver"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// TestMultiSchedScenarioScalesThroughput is the experiment's acceptance
// gate: four concurrent schedulers must drain the same Borg backlog at
// ≥1.5× the single-scheduler throughput, with zero capacity-invariant
// violations (derived from the watch event stream) and a nonzero but
// bounded conflict rate — the signature of optimistic shared-state
// scheduling working as designed.
func TestMultiSchedScenarioScalesThroughput(t *testing.T) {
	cmp, err := MultiSchedScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Results) != 3 {
		t.Fatalf("results = %d, want 1/2/4 shards", len(cmp.Results))
	}
	for _, res := range cmp.Results {
		if !res.Completed {
			t.Fatalf("%d-shard drain did not complete: %+v", res.Shards, res)
		}
		if res.Violations != 0 {
			t.Fatalf("%d-shard drain violated capacity invariants %d times", res.Shards, res.Violations)
		}
		if res.Failed != 0 {
			t.Fatalf("%d-shard drain failed %d jobs", res.Shards, res.Failed)
		}
		if res.Shards == 1 {
			if res.Conflicts != 0 {
				t.Fatalf("single scheduler conflicted %d times (no one to race)", res.Conflicts)
			}
			continue
		}
		// Multi-scheduler runs must actually race: a zero conflict count
		// would mean the admission path was never exercised.
		if res.Conflicts == 0 {
			t.Fatalf("%d-shard drain saw no conflicts — optimistic concurrency untested", res.Shards)
		}
		if res.ConflictRate <= 0 || res.ConflictRate >= 0.5 {
			t.Fatalf("%d-shard conflict rate %.3f outside (0, 0.5) — unbounded or absent", res.Shards, res.ConflictRate)
		}
	}
	if cmp.SpeedupX4 < 1.5 {
		t.Fatalf("4-scheduler speedup %.2f < 1.5× (results: %+v)", cmp.SpeedupX4, cmp.Results)
	}
	if cmp.SpeedupX2 <= 1.0 {
		t.Fatalf("2-scheduler speedup %.2f did not beat one scheduler", cmp.SpeedupX2)
	}
}

// TestMultiSchedDrainDeterministic: the round-robin mode must be
// reproducible bit for bit — identical drain times, conflict counts and
// bind stats across identical runs, even though members race through
// stale views.
func TestMultiSchedDrainDeterministic(t *testing.T) {
	run := func() MultiSchedResult {
		res, err := MultiSchedDrain(MultiSchedConfig{Seed: 7, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("sharded drains diverged:\nrun1: %+v\nrun2: %+v", a, b)
	}
	if a.Conflicts == 0 {
		t.Fatal("deterministic drain saw no conflicts — staleness model inert")
	}
}

// TestMultiSchedConcurrentDrainSafe runs the drain with real-goroutine
// rounds (the benchmark mode): conflict counts are nondeterministic, but
// the safety invariant and full completion must hold regardless. Run
// under -race in CI.
func TestMultiSchedConcurrentDrainSafe(t *testing.T) {
	res, err := MultiSchedDrain(MultiSchedConfig{
		Seed: 3, Shards: 4, Concurrent: true, Horizon: 4 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("concurrent drain did not complete: %+v", res)
	}
	if res.Violations != 0 {
		t.Fatalf("concurrent drain violated capacity invariants %d times", res.Violations)
	}
	if res.Failed != 0 {
		t.Fatalf("concurrent drain failed %d jobs", res.Failed)
	}
}

// TestCapacityWatcherReturnsCommittedToZero feeds the watcher the events
// of one pod's life on a node that fits it exactly: the bind charges the
// node, the terminal update gives the charge back, and a second pod of
// the same size then binds without a violation. A watcher that subtracts
// from a copy of the node's committed list keeps the first charge and
// counts the second bind as over-commitment.
func TestCapacityWatcherReturnsCommittedToZero(t *testing.T) {
	req := resource.List{resource.Memory: resource.GiB, resource.EPCPages: 100}
	pod := func(name string, phase api.PodPhase) *api.Pod {
		return &api.Pod{
			Name:   name,
			Spec:   api.PodSpec{NodeName: "n", Containers: []api.Container{{Resources: api.Requirements{Requests: req}}}},
			Status: api.PodStatus{Phase: phase},
		}
	}
	w := newCapacityWatcher()
	w.onEvent(apiserver.WatchEvent{Type: apiserver.NodeRegistered, Node: &api.Node{Name: "n", Allocatable: req}})
	w.onEvent(apiserver.WatchEvent{Type: apiserver.PodBound, Pod: pod("a", api.PodPending)})
	if got := w.committed["n"]; got != req {
		t.Fatalf("committed after bind = %v, want %v", got, req)
	}
	w.onEvent(apiserver.WatchEvent{Type: apiserver.PodUpdated, Pod: pod("a", api.PodSucceeded)})
	if got := w.committed["n"]; got != (resource.List{}) {
		t.Fatalf("committed after the terminal update = %v, want zero", got)
	}
	w.onEvent(apiserver.WatchEvent{Type: apiserver.PodBound, Pod: pod("b", api.PodPending)})
	if w.violations != 0 || len(w.bound) != 1 {
		t.Fatalf("violations = %d, tracked pods = %d; want 0 and 1", w.violations, len(w.bound))
	}
}
