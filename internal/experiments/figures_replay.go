package experiments

import (
	"fmt"
	"time"

	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/core"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/stats"
)

// replayOnce builds a fresh testbed and replays the evaluation slice; an
// event the reference model refused fails the replay.
func replayOnce(seed int64, tcfg TestbedConfig, rcfg ReplayConfig) (*ReplayResult, error) {
	tb, err := NewTestbed(tcfg)
	if err != nil {
		return nil, err
	}
	if rcfg.Trace == nil {
		rcfg.Trace = borg.NewGenerator(seed).EvalSlice()
	}
	if rcfg.Seed == 0 {
		rcfg.Seed = seed
	}
	return tb.Replay(rcfg)
}

// Fig7PendingQueue reproduces Fig. 7: "time series of the total memory
// amount requested by pods in pending state for different simulated EPC
// sizes" (32, 64, 128, 256 MiB), replaying the §VI-B slice with SGX jobs
// under binpack. The paper's run "is based on simulation, but uses the
// exact same algorithms and behaves in the same way as our concrete
// scheduler" — precisely this harness.
func Fig7PendingQueue(seed int64) (Figure, error) {
	paper := map[int64]string{32: "4h47m", 64: "2h47m", 128: "1h22m", 256: "1h00m"}
	fig := Figure{
		ID:     "fig7",
		Title:  "Total memory requested by pending pods for different simulated EPC sizes",
		XLabel: "Time [min]",
		YLabel: "Requests in queue [MiB]",
	}
	for _, sizeMiB := range []int64{32, 64, 128, 256} {
		res, err := replayOnce(seed, Paper(sizeMiB*resource.MiB), ReplayConfig{SGXRatio: 1, Horizon: 24 * time.Hour})
		if err != nil {
			return Figure{}, fmt.Errorf("fig7 (EPC %d MiB): %w", sizeMiB, err)
		}
		s := Series{Name: fmt.Sprintf("%d MiB", sizeMiB)}
		for _, pt := range res.PendingSeries {
			s.Points = append(s.Points, Point{
				X: pt.Offset.Minutes(),
				Y: float64(pt.RequestedEPCBytes) / float64(resource.MiB),
			})
		}
		fig.Series = append(fig.Series, s)
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"EPC %d MiB: makespan %v (paper: %s), completed=%v",
			sizeMiB, res.Makespan.Round(time.Minute), paper[sizeMiB], res.Completed))
	}
	fig.Notes = append(fig.Notes,
		"paper: no contention at 256 MiB; queue drains progressively slower as EPC shrinks")
	return fig, nil
}

// Fig8WaitCDF reproduces Fig. 8: "CDF of waiting times, using varying
// amounts of SGX-enabled jobs" (0/25/50/75/100%), binpack strategy.
func Fig8WaitCDF(seed int64) (Figure, error) {
	fig := Figure{
		ID:     "fig8",
		Title:  "CDF of waiting times, using varying amounts of SGX-enabled jobs",
		XLabel: "Waiting time [s]",
		YLabel: "CDF [%]",
	}
	labels := map[int]string{0: "No SGX jobs", 25: "25% SGX jobs", 50: "50% SGX jobs",
		75: "75% SGX jobs", 100: "Only SGX jobs"}
	for _, pct := range []int{0, 25, 50, 75, 100} {
		res, err := replayOnce(seed, Paper(0), ReplayConfig{SGXRatio: float64(pct) / 100, Horizon: 24 * time.Hour})
		if err != nil {
			return Figure{}, fmt.Errorf("fig8 (%d%%): %w", pct, err)
		}
		waits := res.WaitingSeconds(nil)
		fig.Series = append(fig.Series, cdfSeries(labels[pct], waits, 100))
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"%3d%% SGX: mean wait %.0f s, max wait %.0f s, makespan %v",
			pct, stats.Mean(waits), maxOf(waits), res.Makespan.Round(time.Minute)))
	}
	fig.Notes = append(fig.Notes,
		"paper: 25-50% SGX 'really close' to the all-standard curve; pure SGX off the chart (longest wait 4696 s)")
	return fig, nil
}

// Fig9WaitByRequest reproduces Fig. 9: "waiting times for SGX and non-SGX
// jobs, using binpack and spread scheduling strategies, depending on the
// memory requested by pods" — one 50% split run per strategy, jobs
// bucketed by requested memory, 95% confidence intervals.
func Fig9WaitByRequest(seed int64) (Figure, error) {
	fig := Figure{
		ID:     "fig9",
		Title:  "Waiting times by requested memory, spread vs binpack, 50% SGX split",
		XLabel: "Memory request [MB] (SGX: 0-25, standard: 0-7500)",
		YLabel: "Average waiting time [s]",
	}
	const buckets = 5
	for _, pol := range []core.Policy{core.Spread{}, core.Binpack{}} {
		tcfg := Paper(0)
		tcfg.Scheduler.Policy = pol
		res, err := replayOnce(seed, tcfg, ReplayConfig{SGXRatio: 0.5, Horizon: 24 * time.Hour})
		if err != nil {
			return Figure{}, fmt.Errorf("fig9 (%s): %w", pol.Name(), err)
		}
		sgxHist := stats.NewHistogram(0, 25, buckets)   // MB, Fig. 9 top axis
		stdHist := stats.NewHistogram(0, 7500, buckets) // MB, Fig. 9 bottom axis
		for _, o := range res.Outcomes {
			if !o.Started {
				continue
			}
			mb := float64(o.RequestBytes) / 1e6
			if o.SGX {
				sgxHist.Add(mb, o.Waiting.Seconds())
			} else {
				stdHist.Add(mb, o.Waiting.Seconds())
			}
		}
		for _, group := range []struct {
			kind string
			hist *stats.Histogram
		}{{"SGX", sgxHist}, {"Standard", stdHist}} {
			kind, hist := group.kind, group.hist
			s := Series{Name: fmt.Sprintf("%s %s", pol.Name(), kind)}
			for i, ci := range hist.MeansCI95() {
				if ci.N == 0 {
					continue
				}
				s.Points = append(s.Points, Point{X: hist.BucketCenter(i), Y: ci.Mean})
				s.CI = append(s.CI, ci.HalfWidth)
			}
			fig.Series = append(fig.Series, s)
		}
		all := res.WaitingSeconds(nil)
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s: overall mean wait %.0f s",
			pol.Name(), stats.Mean(all)))
	}
	fig.Notes = append(fig.Notes,
		"paper: spread consistently worse than binpack; SGX jobs comparable to standard jobs per bucket")
	return fig, nil
}

// Fig10Turnaround reproduces Fig. 10: "sum of turnaround times for all
// jobs sent to the cluster, compared with the time reported by the trace"
// — single-type runs (all SGX or all standard) under both strategies.
func Fig10Turnaround(seed int64) (Figure, error) {
	trace := borg.NewGenerator(seed).EvalSlice()
	fig := Figure{
		ID:     "fig10",
		Title:  "Sum of turnaround times for all jobs, compared with the trace",
		XLabel: "configuration",
		YLabel: "Total turnaround time [h]",
	}
	traceHours := trace.TotalDuration().Hours()
	fig.Series = append(fig.Series, Series{Name: "Trace", Points: []Point{{X: 0, Y: traceHours}}})

	type run struct {
		policy core.Policy
		sgx    bool
	}
	runs := []run{
		{core.Binpack{}, true}, {core.Binpack{}, false},
		{core.Spread{}, true}, {core.Spread{}, false},
	}
	results := make(map[string]float64)
	for _, r := range runs {
		ratio := 0.0
		kind := "Standard"
		if r.sgx {
			ratio, kind = 1.0, "SGX"
		}
		tcfg := Paper(0)
		tcfg.Scheduler.Policy = r.policy
		res, err := replayOnce(seed, tcfg, ReplayConfig{Trace: trace, SGXRatio: ratio, Horizon: 24 * time.Hour})
		if err != nil {
			return Figure{}, fmt.Errorf("fig10 (%s/%s): %w", r.policy.Name(), kind, err)
		}
		name := fmt.Sprintf("%s %s", r.policy.Name(), kind)
		hours := res.TotalTurnaround().Hours()
		results[name] = hours
		fig.Series = append(fig.Series, Series{Name: name, Points: []Point{{X: 0, Y: hours}}})
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s: %.0f h (trace %.0f h, ratio %.2fx)",
			name, hours, traceHours, hours/traceHours))
	}
	if b, s := results["binpack SGX"], results["spread SGX"]; b > 0 && s > 0 {
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"binpack beats spread on SGX: %.0f h vs %.0f h (paper: 210 h vs 275 h)", b, s))
	}
	if sgx, std := results["binpack SGX"], results["binpack Standard"]; std > 0 {
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"binpack SGX/standard ratio %.2fx (paper: 210/111 = 1.89x, 'slightly less than twice')", sgx/std))
	}
	return fig, nil
}

// Fig11Malicious reproduces Fig. 11: "observed waiting times when
// malicious containers are deployed in the system, with and without usage
// limits being enforced". Malicious containers declare 1 EPC page but
// allocate 25% or 50% of each SGX node's EPC; one per SGX node (§VI-F).
func Fig11Malicious(seed int64) (Figure, error) {
	trace := borg.NewGenerator(seed).EvalSlice()
	fig := Figure{
		ID:     "fig11",
		Title:  "Waiting times with malicious containers, with and without limit enforcement",
		XLabel: "Waiting time [s]",
		YLabel: "CDF [%]",
	}
	type cfg struct {
		name     string
		enforce  bool
		fraction float64
	}
	cases := []cfg{
		{"Limits enabled-50% EPC occupied", true, 0.5},
		{"Limits disabled-Trace jobs only", false, 0},
		{"Limits disabled-25% EPC occupied", false, 0.25},
		{"Limits disabled-50% EPC occupied", false, 0.5},
	}
	for _, c := range cases {
		rcfg := ReplayConfig{Trace: trace, SGXRatio: 1, Horizon: 24 * time.Hour}
		if c.fraction > 0 {
			rcfg.MaliciousPerSGXNode = 1
			rcfg.MaliciousEPCFraction = c.fraction
		}
		tcfg := Paper(0)
		tcfg.NoEnforcement = !c.enforce
		res, err := replayOnce(seed, tcfg, rcfg)
		if err != nil {
			return Figure{}, fmt.Errorf("fig11 (%s): %w", c.name, err)
		}
		waits := res.WaitingSeconds(nil)
		fig.Series = append(fig.Series, cdfSeries(c.name, waits, 100))
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"%s: mean wait %.0f s, failed jobs %d, makespan %v",
			c.name, stats.Mean(waits), res.Failed, res.Makespan.Round(time.Minute)))
	}
	fig.Notes = append(fig.Notes,
		"paper: without limits honest containers wait longer, worsening with the malicious allocation size;",
		"enforcing limits annihilates the attack and beats the clean run because the 44 over-allocating trace jobs are killed",
		"replay uses 100% SGX jobs so every job contends on the attacked resource")
	return fig, nil
}
