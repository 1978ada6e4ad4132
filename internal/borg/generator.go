package borg

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// Day is the span of the Fig. 5 concurrency plot (first 24 h of the
// trace).
const Day = 24 * time.Hour

// The calibration of the synthetic trace. With 663 jobs over one hour,
// E[frac] ≈ 0.105 and E[duration] ≈ 118 s put the all-SGX replay's EPC
// demand at ~103% of the two SGX nodes' 187 MiB (§VI-A cluster) — the
// overload regime behind Fig. 8's long waiting-time tail — and reproduce
// Fig. 7's drain times within ~15% at every simulated EPC size.
const (
	// Durations: shifted exponential capped at MaxDuration.
	durationMin  = 5 * time.Second
	durationMean = 125 * time.Second

	// Memory fractions: log-normal ln N(fracMu, fracSigma), clamped to
	// (0, MaxMemFraction].
	fracMu    = -2.7
	fracSigma = 0.95

	// overAllocRatio is the probability that a job's maximal usage exceeds
	// its advertisement (44/663 in the evaluation slice, §VI-F).
	overAllocRatio = float64(EvalOverAllocators) / float64(EvalJobCount)

	// Concurrency profile (Fig. 5): base ± amplitude daily wave plus a
	// shorter wiggle and noise, with the minimum centred on the evaluation
	// window.
	concurrencyBase      = 134000
	concurrencyAmplitude = 7000
	concurrencyWiggle    = 2500
	concurrencyNoise     = 1500
)

// Generator produces deterministic synthetic traces.
type Generator struct {
	seed int64
	rng  *rand.Rand
}

// NewGenerator creates a generator whose traces are a function of seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// sampleDuration draws a job duration: min + Exp(mean-min), capped at
// MaxDuration, matching Fig. 4's bounded CDF. Times are truncated to the
// microsecond granularity of the original trace.
func (g *Generator) sampleDuration() time.Duration {
	mean := float64(durationMean - durationMin)
	d := durationMin + time.Duration(g.rng.ExpFloat64()*mean)
	if d > MaxDuration {
		d = MaxDuration
	}
	return d.Truncate(time.Microsecond)
}

// sampleFrac draws a maximal memory usage fraction from the calibrated
// log-normal, clamped to (0, cap].
func (g *Generator) sampleFrac(cap float64) float64 {
	f := math.Exp(fracMu + fracSigma*g.rng.NormFloat64())
	if f > cap {
		f = cap
	}
	if f < 1e-4 {
		f = 1e-4
	}
	return f
}

// assignAdvertised derives the advertised memory from the actual usage.
// Honest jobs over-declare by up to 60%; over-allocators advertise less
// than they use (§VI-F).
func (g *Generator) assignAdvertised(maxFrac float64, overAllocates bool, cap float64) float64 {
	if overAllocates {
		f := maxFrac / (1.1 + 0.9*g.rng.Float64()) // uses 1.1x-2x its claim
		if f < 1e-4 {
			f = 1e-4
		}
		return f
	}
	f := maxFrac * (1.0 + 0.6*g.rng.Float64())
	if f > cap {
		f = cap
	}
	return f
}

// concurrencyAt evaluates the deterministic part of the Fig. 5 profile at
// offset t. The daily wave's minimum is centred on the evaluation window
// (u0 ≈ 0.096 of the day ≈ 8280 s, the midpoint of 6480-10080 s): the
// paper picked that hour because it is "the less job-intensive in terms
// of concurrent jobs for the considered time interval".
func (g *Generator) concurrencyAt(t time.Duration) float64 {
	u := float64(t) / float64(Day)
	const u0 = 8280.0 / 86400.0
	wave := concurrencyAmplitude * math.Cos(2*math.Pi*(u-u0-0.5))
	// The wiggle's phase keeps its trough aligned with the daily wave's
	// minimum at u0, so the global minimum stays inside the evaluation
	// window.
	wiggle := concurrencyWiggle * math.Sin(6*math.Pi*u+2.902)
	return concurrencyBase + wave + wiggle
}

// ConcurrencyPoint is one sample of the Fig. 5 series.
type ConcurrencyPoint struct {
	Offset time.Duration
	Jobs   float64
}

// ConcurrencyProfile renders the first-24 h concurrently-running-jobs
// series at the given step (Fig. 5), noise included.
func (g *Generator) ConcurrencyProfile(step time.Duration) []ConcurrencyPoint {
	if step <= 0 {
		step = 10 * time.Minute
	}
	rng := rand.New(rand.NewSource(g.seed + 5))
	var out []ConcurrencyPoint
	for t := time.Duration(0); t <= Day; t += step {
		noise := concurrencyNoise * (2*rng.Float64() - 1)
		out = append(out, ConcurrencyPoint{Offset: t, Jobs: g.concurrencyAt(t) + noise})
	}
	return out
}

// FullDay materialises n jobs across the first 24 h with arrival intensity
// proportional to the concurrency profile — the population behind the
// Fig. 3 and Fig. 4 CDFs.
func (g *Generator) FullDay(n int) *Trace {
	if n <= 0 {
		n = 20000
	}
	// Build a minute-resolution intensity table for inverse-CDF arrival
	// sampling.
	const minutes = 24 * 60
	weights := make([]float64, minutes)
	var total float64
	for m := 0; m < minutes; m++ {
		w := g.concurrencyAt(time.Duration(m) * time.Minute)
		weights[m] = w
		total += w
	}
	cum := make([]float64, minutes)
	acc := 0.0
	for m, w := range weights {
		acc += w / total
		cum[m] = acc
	}

	tr := &Trace{Horizon: Day}
	for i := 0; i < n; i++ {
		u := g.rng.Float64()
		minute := 0
		for minute < minutes-1 && cum[minute] < u {
			minute++
		}
		submit := (time.Duration(minute)*time.Minute +
			time.Duration(g.rng.Float64()*float64(time.Minute))).Truncate(time.Microsecond)
		maxFrac := g.sampleFrac(MaxMemFraction)
		over := g.rng.Float64() < overAllocRatio
		tr.Jobs = append(tr.Jobs, Job{
			Submit:          submit,
			Duration:        g.sampleDuration(),
			MaxMemFrac:      maxFrac,
			AssignedMemFrac: g.assignAdvertised(maxFrac, over, MaxMemFraction),
		})
	}
	tr.sortBySubmit()
	for i := range tr.Jobs {
		tr.Jobs[i].ID = int64(i + 1)
	}
	return tr
}

// EvalSlice produces the replay input of §VI-B: the 6480-10080 s window
// after 1-in-1200 sampling — exactly 663 jobs over one hour, exactly 44 of
// them over-allocating, memory fractions capped at EvalMaxMemFraction.
// Generating the sampled stream directly is statistically equivalent to
// materialising the ~800k-job window and thinning it.
func (g *Generator) EvalSlice() *Trace {
	window := EvalWindowEnd - EvalWindowStart
	tr := &Trace{Horizon: window}

	// Pre-assign which sampled jobs over-allocate: exactly 44 of 663.
	over := make([]bool, EvalJobCount)
	for i := 0; i < EvalOverAllocators; i++ {
		over[i] = true
	}
	rng := rand.New(rand.NewSource(g.seed + 7))
	rng.Shuffle(EvalJobCount, func(i, j int) { over[i], over[j] = over[j], over[i] })

	// Arrivals: ordered uniforms, shaped by the (nearly flat) intensity
	// at the bottom of the daily wave.
	submits := make([]time.Duration, EvalJobCount)
	for i := range submits {
		submits[i] = time.Duration(rng.Float64() * float64(window)).Truncate(time.Microsecond)
	}
	sortDurations(submits)

	for i := 0; i < EvalJobCount; i++ {
		maxFrac := g.sampleFrac(EvalMaxMemFraction)
		adv := g.assignAdvertised(maxFrac, over[i], EvalMaxMemFraction)
		tr.Jobs = append(tr.Jobs, Job{
			ID:              int64(i + 1),
			Submit:          submits[i],
			Duration:        g.sampleDuration(),
			MaxMemFrac:      maxFrac,
			AssignedMemFrac: adv,
		})
	}
	return tr
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}
