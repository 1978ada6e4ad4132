package experiments

import (
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/stack"
)

func TestSGX2DynamicReplayCompletes(t *testing.T) {
	cfg := Paper(0)
	cfg.Stack.Nodes = stack.WithMaster(stack.Fleet(stack.StdNodes, stack.SGXNodes, stack.DefaultEPC, true))
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Replay(ReplayConfig{
		Trace:      evalTrace(5),
		SGXRatio:   1,
		Seed:       5,
		DynamicEPC: true,
		Horizon:    24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("dynamic replay incomplete; makespan %v", res.Makespan)
	}
	// Over-allocators still die — at burst time instead of EINIT.
	if res.Failed == 0 {
		t.Fatal("no over-allocating jobs were killed")
	}
}

func TestSGX2AblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full trace replays")
	}
	fig, err := SGX2Ablation(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %v", seriesNames(fig))
	}
	static := seriesByName(t, fig, "SGX1 static").Points[0].Y
	dynamic := seriesByName(t, fig, "SGX2 dynamic").Points[0].Y
	// Dynamic allocation must not be worse; under the overloaded all-SGX
	// slice it should clearly reduce waiting (§VI-G's utilization claim).
	if dynamic > static {
		t.Fatalf("dynamic EPC waits %.0f s worse than static %.0f s", dynamic, static)
	}
	if static > 0 && dynamic/static > 0.9 {
		t.Logf("warning: modest gain only (%.0f s -> %.0f s)", static, dynamic)
	}
}

func TestDynamicOnSGX1TestbedFails(t *testing.T) {
	tb, err := NewTestbed(Paper(0))
	if err != nil {
		t.Fatal(err)
	}
	trace := &borg.Trace{Jobs: evalTrace(1).Jobs[:5], Horizon: time.Hour}
	res, err := tb.Replay(ReplayConfig{
		Trace:      trace,
		SGXRatio:   1,
		Seed:       1,
		DynamicEPC: true,
		Horizon:    2 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic workloads cannot run on SGX 1 nodes: every job fails at
	// launch rather than silently degrading.
	if res.Failed != 5 {
		t.Fatalf("failed = %d, want all 5 (SGX1 cannot run dynamic workloads)", res.Failed)
	}
}
