package experiments

import (
	"fmt"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/golden"
)

// TestReplayDeterministicPerSeed backs the reproducibility of the figures
// `go run ./cmd/benchreport` regenerates (ROADMAP.md item 9): two replays
// with the same seed produce identical per-job outcomes, bit for bit.
func TestReplayDeterministicPerSeed(t *testing.T) {
	run := func() *ReplayResult {
		tb, err := NewTestbed(Paper(0))
		if err != nil {
			t.Fatal(err)
		}
		res, err := tb.Replay(ReplayConfig{Trace: evalTrace(11), SGXRatio: 0.5, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(a.Outcomes), len(b.Outcomes))
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatalf("outcome %d differs:\n%+v\n%+v", i, a.Outcomes[i], b.Outcomes[i])
		}
	}
	if a.Makespan != b.Makespan || a.Failed != b.Failed {
		t.Fatalf("aggregates differ: %v/%d vs %v/%d",
			a.Makespan, a.Failed, b.Makespan, b.Failed)
	}
	if len(a.PendingSeries) != len(b.PendingSeries) {
		t.Fatal("pending series lengths differ")
	}
	for i := range a.PendingSeries {
		if a.PendingSeries[i] != b.PendingSeries[i] {
			t.Fatalf("pending sample %d differs", i)
		}
	}
	// Same seed, same outcomes — across commits too, not only across the
	// two runs above.
	lines := make([]string, len(a.Outcomes))
	for i, o := range a.Outcomes {
		lines[i] = fmt.Sprintf("%+v", o)
	}
	if got, want := golden.StreamDigest(lines), "94cf7fea08e05c61"; got != want {
		t.Fatalf("per-job outcomes digest = %s, want %s (%d jobs, makespan %v): the replay's schedule changed",
			got, want, len(lines), a.Makespan)
	}
}

// TestReplaySeedsDiffer guards against the generator collapsing to a
// constant: different seeds must produce different schedules.
func TestReplaySeedsDiffer(t *testing.T) {
	run := func(seed int64) time.Duration {
		tb, err := NewTestbed(Paper(0))
		if err != nil {
			t.Fatal(err)
		}
		res, err := tb.Replay(ReplayConfig{Trace: evalTrace(seed), SGXRatio: 0.5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	if run(21) == run(22) {
		t.Fatal("different seeds produced identical makespans (suspicious)")
	}
}
