package main

import (
	"math"
	"sort"

	"github.com/sgxorch/sgxorch/internal/stats"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the p-quantile (0 <= p <= 1) of ascending s by linear
// interpolation between order statistics; 0 for an empty slice.
func quantile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// iqr is the distance between the first and third quartile.
func iqr(xs []float64) float64 {
	s := sorted(xs)
	return quantile(s, 0.75) - quantile(s, 0.25)
}

// cov is the coefficient of variation: sample standard deviation over
// the mean's magnitude (0 below two samples or at a zero mean).
func cov(xs []float64) float64 {
	m := stats.Mean(xs)
	if m == 0 {
		return 0
	}
	return stats.StdDev(xs) / math.Abs(m)
}

// estimate is one reported value: the median over reps with the spread
// it was taken from.
type estimate struct {
	Value float64 `json:"value"`
	Reps  int     `json:"reps"`
	IQR   float64 `json:"iqr"`
	CoV   float64 `json:"cov"`
}

func estimateOf(xs []float64) estimate {
	return estimate{Value: median(xs), Reps: len(xs), IQR: iqr(xs), CoV: cov(xs)}
}

// medianRSE is the relative standard error of the reported median: the
// per-rep CoV shrunk by the rep count (1.2533 is the median's efficiency
// factor against the mean for near-normal samples).
func (e estimate) medianRSE() float64 {
	if e.Reps == 0 {
		return 0
	}
	return 1.2533 * e.CoV / math.Sqrt(float64(e.Reps))
}

// resolved reports whether the estimate is tight enough to compare
// against bound: its relative standard error must stay within half of it.
func (e estimate) resolved(bound float64) bool { return e.medianRSE() <= bound/2 }

// tenBeyond reports whether n samples leave at least ten beyond their
// p-quantile — the condition under which a tail percentile is worth
// reporting (p99 needs n >= 1000, so short reps are pooled first).
func tenBeyond(n int, p float64) bool { return float64(n)*(1-p) >= 10 }

// clampSub is a subtractive attribution (with − without) that noise may
// push below zero; negative differences read as zero cost.
func clampSub(with, without float64) float64 {
	if d := with - without; d > 0 {
		return d
	}
	return 0
}

// ratio is num/den, 0 at a zero denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
