// Package stats provides the small statistical toolkit used across the
// reproduction: empirical CDFs (Figs. 3, 4, 8, 11), means with 95%
// confidence intervals (Figs. 6, 9), and histogram bucketing (Fig. 9).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (n-1 denominator).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// MeanCI is a mean estimate with a symmetric confidence half-width, as
// plotted by the paper's error bars ("error bars represent the 95%
// confidence interval", §VI-D).
type MeanCI struct {
	Mean      float64
	HalfWidth float64
	N         int
}

// String renders "mean ± halfwidth (n=N)".
func (m MeanCI) String() string {
	return fmt.Sprintf("%.3f ± %.3f (n=%d)", m.Mean, m.HalfWidth, m.N)
}

// MeanCI95 estimates the mean of xs with a 95% confidence interval using
// Student's t critical values.
func MeanCI95(xs []float64) MeanCI {
	n := len(xs)
	if n == 0 {
		return MeanCI{}
	}
	if n == 1 {
		return MeanCI{Mean: xs[0], N: 1}
	}
	se := StdDev(xs) / math.Sqrt(float64(n))
	return MeanCI{Mean: Mean(xs), HalfWidth: tCritical95(n-1) * se, N: n}
}

// tCritical95 returns the two-sided 95% critical value of Student's t
// distribution with df degrees of freedom. Values for small df come from
// standard tables; large df converge to the normal quantile 1.96.
func tCritical95(df int) float64 {
	table := []float64{
		// df: 1..30
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
		2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
		2.048, 2.045, 2.042,
	}
	switch {
	case df <= 0:
		return math.NaN()
	case df <= len(table):
		return table[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample xs. The input slice is
// copied.
func NewCDF(xs []float64) *CDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the sample size.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x) in [0, 1].
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Index of first element > x.
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the smallest sample value v with P(X <= v) >= p.
// p is clamped to [0, 1].
func (c *CDF) Quantile(p float64) (float64, error) {
	if len(c.sorted) == 0 {
		return 0, ErrEmpty
	}
	if p <= 0 {
		return c.sorted[0], nil
	}
	if p >= 1 {
		return c.sorted[len(c.sorted)-1], nil
	}
	i := int(math.Ceil(p*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return c.sorted[i], nil
}

// CDFPoint is one (x, P(X<=x)) pair of a rendered CDF curve.
type CDFPoint struct {
	X float64
	P float64 // in percent, 0..100, as the paper's y-axes
}

// Curve samples the CDF at n+1 evenly spaced points spanning [min, max],
// expressing probabilities in percent like the paper's figures.
func (c *CDF) Curve(n int) []CDFPoint {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	pts := make([]CDFPoint, 0, n+1)
	for i := 0; i <= n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n)
		pts = append(pts, CDFPoint{X: x, P: 100 * c.At(x)})
	}
	return pts
}

// Histogram buckets values into fixed-width bins over [lo, hi); values
// outside the range are clamped into the first/last bin. Fig. 9 buckets
// waiting times by requested memory this way.
type Histogram struct {
	Lo, Hi  float64
	Buckets [][]float64
}

// NewHistogram creates a histogram with n equal-width buckets over
// [lo, hi). It panics if n <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([][]float64, n)}
}

// BucketIndex returns the bucket index for key.
func (h *Histogram) BucketIndex(key float64) int {
	n := len(h.Buckets)
	i := int((key - h.Lo) / (h.Hi - h.Lo) * float64(n))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// Add records value under the bucket selected by key.
func (h *Histogram) Add(key, value float64) {
	i := h.BucketIndex(key)
	h.Buckets[i] = append(h.Buckets[i], value)
}

// BucketCenter returns the midpoint of bucket i.
func (h *Histogram) BucketCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Buckets))
	return h.Lo + w*(float64(i)+0.5)
}

// MeansCI95 returns the per-bucket mean and 95% CI, skipping empty buckets
// (their N is 0).
func (h *Histogram) MeansCI95() []MeanCI {
	out := make([]MeanCI, len(h.Buckets))
	for i, b := range h.Buckets {
		out[i] = MeanCI95(b)
	}
	return out
}
