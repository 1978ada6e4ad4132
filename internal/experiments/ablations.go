package experiments

import (
	"fmt"
	"time"

	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/stats"
)

// WindowAblation sweeps the sliding metric window of Listing 1 (25 s in
// the paper) on the all-standard replay, where usage-aware memory packing
// does the work. The window interacts with the 10 s probe period and with
// the scheduler's metric-lag fusion, which charges a pod max(measured,
// requested) for one window after it starts and its measured peak alone
// after that:
//
//   - windows shorter than the scrape interval make mature pods' usage
//     blink out of the query between samples, so the scheduler
//     over-admits and workloads are OOM-killed on the machines;
//   - very long windows hold stale peaks, wasting headroom.
//
// The paper's 25 s window (2-3 probe samples) sits in the safe middle.
func WindowAblation(seed int64) (Figure, error) {
	trace := borg.NewGenerator(seed).EvalSlice()
	fig := Figure{
		ID:     "window",
		Title:  "Sliding metric window ablation (Listing 1 uses 25 s)",
		XLabel: "window [s]",
		YLabel: "mean waiting time [s]",
	}
	means := Series{Name: "mean wait"}
	failed := Series{Name: "OOM-killed jobs"}
	for _, window := range []time.Duration{5 * time.Second, 15 * time.Second,
		25 * time.Second, 60 * time.Second, 120 * time.Second} {
		tcfg := Paper(0)
		tcfg.Scheduler = core.Config{Name: SchedulerName, Policy: core.Binpack{}, UseMetrics: true, Window: window}
		res, err := replayOnce(seed, tcfg, ReplayConfig{Trace: trace, SGXRatio: 0})
		if err != nil {
			return Figure{}, fmt.Errorf("window ablation (%v): %w", window, err)
		}
		waits := res.WaitingSeconds(nil)
		means.Points = append(means.Points, Point{X: window.Seconds(), Y: stats.Mean(waits)})
		failed.Points = append(failed.Points, Point{X: window.Seconds(), Y: float64(res.Failed)})
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"window %3.0fs: mean wait %.1f s, failed %d, makespan %v",
			window.Seconds(), stats.Mean(waits), res.Failed, res.Makespan.Round(time.Minute)))
	}
	fig.Series = []Series{means, failed}
	fig.Notes = append(fig.Notes,
		"windows below the 10 s probe period let mature pods' usage blink out of the query (over-admission risk);",
		"the paper's 25 s covers 2-3 probe samples")
	return fig, nil
}

// IntervalAblation sweeps the scheduling period (§IV: the scheduler
// "periodically checks" the queue). Short periods cut the queueing floor
// every job pays; long periods dominate waiting times for uncontended
// workloads.
func IntervalAblation(seed int64) (Figure, error) {
	trace := borg.NewGenerator(seed).EvalSlice()
	fig := Figure{
		ID:     "interval",
		Title:  "Scheduling period ablation",
		XLabel: "scheduler interval [s]",
		YLabel: "mean waiting time [s]",
	}
	s := Series{Name: "mean wait (0% SGX)"}
	for _, interval := range []time.Duration{time.Second, 5 * time.Second,
		15 * time.Second, 30 * time.Second} {
		tcfg := Paper(0)
		tcfg.Scheduler.Interval = interval
		res, err := replayOnce(seed, tcfg, ReplayConfig{Trace: trace, SGXRatio: 0})
		if err != nil {
			return Figure{}, fmt.Errorf("interval ablation (%v): %w", interval, err)
		}
		waits := res.WaitingSeconds(nil)
		s.Points = append(s.Points, Point{X: interval.Seconds(), Y: stats.Mean(waits)})
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"interval %2.0fs: mean wait %.1f s, makespan %v",
			interval.Seconds(), stats.Mean(waits), res.Makespan.Round(time.Minute)))
	}
	fig.Series = []Series{s}
	return fig, nil
}
