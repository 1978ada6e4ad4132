package experiments

import (
	"reflect"
	"testing"
	"time"
)

// TestGangScenarioAllOrNothing: at every fleet size the backlog drains
// (deadlock-freedom), no gang is ever partially placed, no capacity
// invariant breaks, and permit rollbacks leak nothing.
func TestGangScenarioAllOrNothing(t *testing.T) {
	results, err := GangScenario(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	// Time-to-full-gang at 1 / 2 / 4 shards, pinned to every earlier
	// commit's: it is read off the watch stream's status stamps.
	wantFull := [][2]time.Duration{
		{22500 * time.Millisecond, 40 * time.Second},
		{17500 * time.Millisecond, 35 * time.Second},
		{14375 * time.Millisecond, 30 * time.Second},
	}
	for i, res := range results {
		if got := [2]time.Duration{res.MeanTimeToFullGang, res.MaxTimeToFullGang}; got != wantFull[i] {
			t.Errorf("shards=%d: mean / max time-to-full-gang = %v / %v, want %v / %v",
				res.Shards, got[0], got[1], wantFull[i][0], wantFull[i][1])
		}
	}
	for _, res := range results {
		if !res.Completed {
			t.Errorf("shards=%d: backlog did not drain (possible gang deadlock), drain=%v",
				res.Shards, res.DrainTime)
		}
		if res.PartialPlacements != 0 {
			t.Errorf("shards=%d: %d partial gang placements, want 0", res.Shards, res.PartialPlacements)
		}
		if res.Violations != 0 {
			t.Errorf("shards=%d: %d capacity violations, want 0", res.Shards, res.Violations)
		}
		if res.LeakedPermits != 0 {
			t.Errorf("shards=%d: %d permits leaked after drain, want 0", res.Shards, res.LeakedPermits)
		}
		if res.GangsCommitted < int64(res.Gangs) {
			t.Errorf("shards=%d: %d gang commits for %d gangs", res.Shards, res.GangsCommitted, res.Gangs)
		}
		if res.MeanTimeToFullGang <= 0 {
			t.Errorf("shards=%d: mean time-to-full-gang = %v", res.Shards, res.MeanTimeToFullGang)
		}
	}
}

// TestGangDrainDeterministic: the same seed reproduces the identical
// result struct under the simulation clock, sharded fleet included.
func TestGangDrainDeterministic(t *testing.T) {
	a, err := GangDrain(GangExpConfig{Seed: 11, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GangDrain(GangExpConfig{Seed: 11, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic gang drain:\n  a = %+v\n  b = %+v", a, b)
	}
	if a.MeanTimeToFullGang != 14375*time.Millisecond || a.MaxTimeToFullGang != 30*time.Second {
		t.Fatalf("mean / max time-to-full-gang = %v / %v, want 14.375s / 30s",
			a.MeanTimeToFullGang, a.MaxTimeToFullGang)
	}
}
