package experiments

import (
	"fmt"
	"time"

	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/stats"
)

// SGX2Ablation quantifies §VI-G's claim that dynamic EPC allocation "can
// really improve resource utilization on shared infrastructures": the
// same all-SGX trace slice is replayed twice on SGX 2 hardware —
//
//   - SGX 1 style: every job commits its peak for its whole runtime and
//     must request its whole advertisement up front;
//   - SGX 2 style: jobs request half their advertisement as steady-state
//     baseline (device items), declare the advertisement as their
//     driver-enforced limit, and burst via EAUG to their peak only for
//     the middle third of their runtime (TraceJob).
//
// The usage-aware scheduler (unchanged, as §VI-G predicts: "our solution
// will work out-of-the-box") converts the freed baseline into admission
// headroom.
func SGX2Ablation(seed int64) (Figure, error) {
	trace := borg.NewGenerator(seed).EvalSlice()
	fig := Figure{
		ID:     "sgx2",
		Title:  "SGX 2 dynamic EPC allocation vs SGX 1 static commitment (extension of §VI-G)",
		XLabel: "configuration",
		YLabel: "mean waiting time [s]",
	}
	type mode struct {
		name    string
		dynamic bool
	}
	// The §VI-A testbed with SGX 2 machines.
	sgx2 := Paper(0)
	sgx2.Nodes = WithMaster(Fleet(StdNodes, SGXNodes, DefaultEPC, true))
	makespans := make(map[string]time.Duration)
	for _, m := range []mode{{"SGX1 static", false}, {"SGX2 dynamic", true}} {
		res, err := replayOnce(seed, sgx2, ReplayConfig{
			Trace:      trace,
			SGXRatio:   1,
			DynamicEPC: m.dynamic,
		})
		if err != nil {
			return Figure{}, fmt.Errorf("sgx2 ablation (%s): %w", m.name, err)
		}
		waits := res.WaitingSeconds(nil)
		fig.Series = append(fig.Series, Series{
			Name:   m.name,
			Points: []Point{{X: 0, Y: stats.Mean(waits)}},
		})
		makespans[m.name] = res.Makespan
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"%s: mean wait %.0f s, makespan %v, failed %d",
			m.name, stats.Mean(waits), res.Makespan.Round(time.Minute), res.Failed))
	}
	if s1, s2 := makespans["SGX1 static"], makespans["SGX2 dynamic"]; s2 > 0 {
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"dynamic allocation shortens the makespan %.2fx (paper §VI-G: 'can really improve resource utilization')",
			float64(s1)/float64(s2)))
	}
	return fig, nil
}
