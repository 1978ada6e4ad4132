package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/sgxorch/sgxorch/internal/borg"
	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/sgx"
	"github.com/sgxorch/sgxorch/internal/stats"
)

// Point is one (x, y) sample of a rendered series.
type Point struct {
	X float64
	Y float64
}

// Series is one labelled curve or bar group of a figure.
type Series struct {
	Name   string
	Points []Point
	// CI carries the per-point 95% confidence half-width where the paper
	// plots error bars (Figs. 6, 9); nil otherwise.
	CI []float64
}

// Figure is the reproduction of one paper figure: the same series the
// paper plots, plus notes recording paper-vs-measured anchors.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// cdfSeries renders an empirical CDF like the paper's figures (y in %).
func cdfSeries(name string, values []float64, points int) Series {
	c := stats.NewCDF(values)
	pts := c.Curve(points)
	s := Series{Name: name, Points: make([]Point, 0, len(pts))}
	for _, p := range pts {
		s.Points = append(s.Points, Point{X: p.X, Y: p.P})
	}
	return s
}

// Fig3MemoryCDF reproduces Fig. 3: "Google Borg trace: distribution of
// maximal memory usage" — the CDF of per-job maximal memory usage as a
// fraction of available memory, bounded by 0.5.
func Fig3MemoryCDF(seed int64, jobs int) Figure {
	tr := borg.NewGenerator(seed).FullDay(jobs)
	fr := tr.MemFractions()
	cdf := stats.NewCDF(fr)
	return Figure{
		ID:     "fig3",
		Title:  "Google Borg trace: distribution of maximal memory usage",
		XLabel: "Max. mem. usage [% of available mem.]",
		YLabel: "CDF [%]",
		Series: []Series{cdfSeries("max memory usage", fr, 100)},
		Notes: []string{
			fmt.Sprintf("jobs=%d", tr.Len()),
			fmt.Sprintf("paper: all usage fractions <= 0.5; measured max = %.3f", maxOf(fr)),
			fmt.Sprintf("CDF(0.1) = %.1f%% (bulk of jobs below 0.1, as in the paper's curve)", 100*cdf.At(0.1)),
		},
	}
}

// Fig4DurationCDF reproduces Fig. 4: "Google Borg trace: distribution of
// job duration" — all jobs last at most 300 s.
func Fig4DurationCDF(seed int64, jobs int) Figure {
	tr := borg.NewGenerator(seed).FullDay(jobs)
	ds := tr.DurationsSeconds()
	return Figure{
		ID:     "fig4",
		Title:  "Google Borg trace: distribution of job duration",
		XLabel: "Job duration [s]",
		YLabel: "CDF [%]",
		Series: []Series{cdfSeries("job duration", ds, 100)},
		Notes: []string{
			fmt.Sprintf("jobs=%d", tr.Len()),
			fmt.Sprintf("paper: all jobs last at most 300 s; measured max = %.0f s", maxOf(ds)),
		},
	}
}

// Fig5Concurrency reproduces Fig. 5: "concurrently running jobs during the
// first 24 h", with the evaluation slice (6480-10080 s) chosen as the
// least job-intensive hour.
func Fig5Concurrency(seed int64, step time.Duration) Figure {
	g := borg.NewGenerator(seed)
	pts := g.ConcurrencyProfile(step)
	s := Series{Name: "total jobs", Points: make([]Point, 0, len(pts))}
	lo, hi := pts[0].Jobs, pts[0].Jobs
	var minAt time.Duration
	for _, p := range pts {
		s.Points = append(s.Points, Point{X: p.Offset.Hours(), Y: p.Jobs})
		if p.Jobs < lo {
			lo, minAt = p.Jobs, p.Offset
		}
		if p.Jobs > hi {
			hi = p.Jobs
		}
	}
	return Figure{
		ID:     "fig5",
		Title:  "Google Borg trace: concurrently running jobs during the first 24h",
		XLabel: "Time [hours]",
		YLabel: "Total jobs",
		Series: []Series{s},
		Notes: []string{
			fmt.Sprintf("paper: ~125k-145k concurrent jobs; measured range [%.0f, %.0f]", lo, hi),
			fmt.Sprintf("evaluation slice %v-%v; profile minimum at %v (inside/near the slice)",
				borg.EvalWindowStart, borg.EvalWindowEnd, minAt),
		},
	}
}

// Fig6Startup reproduces Fig. 6: "startup time of SGX processes observed
// for varying EPC sizes" — PSW service startup plus enclave memory
// allocation, 60 runs per point, 95% confidence intervals, for requested
// EPC of 0, 32, 64, 93.5 (max usable) and 128 MiB.
func Fig6Startup(seed int64, runs int) Figure {
	if runs <= 0 {
		runs = 60 // "the required average time required for 60 runs"
	}
	usable := sgx.DefaultGeometry().UsableBytes()
	rng := rand.New(rand.NewSource(seed))

	sizes := []struct {
		label string
		bytes int64
	}{
		{"0", 0},
		{"32", 32 * resource.MiB},
		{"64", 64 * resource.MiB},
		{"93.5", usable},
		{"128", 128 * resource.MiB},
	}

	psw := Series{Name: "PSW service startup"}
	alloc := Series{Name: "Memory allocation"}
	var notes []string
	for _, sz := range sizes {
		var pswSamples, allocSamples []float64
		for i := 0; i < runs; i++ {
			// Run-to-run variance behind the paper's error bars: the
			// service start jitters a few percent; allocation jitters
			// with both relative and small absolute noise.
			pswMS := float64(sgx.PSWStartup.Milliseconds())
			pswSamples = append(pswSamples, pswMS*(1+0.05*(2*rng.Float64()-1)))
			allocMS := float64(sgx.AllocLatency(sz.bytes, usable)) / float64(time.Millisecond)
			allocSamples = append(allocSamples,
				allocMS*(1+0.04*(2*rng.Float64()-1))+2*rng.Float64())
		}
		x := float64(sz.bytes) / float64(resource.MiB)
		pswCI := stats.MeanCI95(pswSamples)
		allocCI := stats.MeanCI95(allocSamples)
		psw.Points = append(psw.Points, Point{X: x, Y: pswCI.Mean})
		psw.CI = append(psw.CI, pswCI.HalfWidth)
		alloc.Points = append(alloc.Points, Point{X: x, Y: allocCI.Mean})
		alloc.CI = append(alloc.CI, allocCI.HalfWidth)
		notes = append(notes, fmt.Sprintf("EPC %s MiB: PSW %.0f ms + alloc %.0f ms = total %.0f ms",
			sz.label, pswCI.Mean, allocCI.Mean, pswCI.Mean+allocCI.Mean))
	}
	notes = append(notes,
		"paper: PSW ~100 ms flat; allocation 1.6 ms/MiB below 93.5 MiB, then 4.5 ms/MiB plus ~200 ms",
		"paper: total at 128 MiB ~600 ms",
		fmt.Sprintf("runs per point = %d (95%% CI)", runs),
	)
	return Figure{
		ID:     "fig6",
		Title:  "Startup time of SGX processes observed for varying EPC sizes",
		XLabel: "Requested EPC [MiB]",
		YLabel: "Waiting time [ms]",
		Series: []Series{psw, alloc},
		Notes:  notes,
	}
}

func maxOf(xs []float64) float64 {
	m, err := stats.Max(xs)
	if err != nil {
		return 0
	}
	return m
}
