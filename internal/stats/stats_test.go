package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7.0)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
	if got := StdDev([]float64{3}); got != 0 {
		t.Fatalf("StdDev(single) = %v, want 0", got)
	}
}

func TestMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Fatalf("Max = %v, %v", mx, err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Fatalf("Max(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMeanCI95KnownValue(t *testing.T) {
	// n=5, sd=1, se=1/sqrt(5); t_{0.975,4}=2.776.
	xs := []float64{1, 2, 3, 4, 5}
	ci := MeanCI95(xs)
	if ci.Mean != 3 || ci.N != 5 {
		t.Fatalf("MeanCI95 = %+v, want mean 3 n 5", ci)
	}
	sd := StdDev(xs)
	want := 2.776 * sd / math.Sqrt(5)
	if !almostEqual(ci.HalfWidth, want, 1e-9) {
		t.Fatalf("HalfWidth = %v, want %v", ci.HalfWidth, want)
	}
}

func TestMeanCI95Degenerate(t *testing.T) {
	if ci := MeanCI95(nil); ci.N != 0 {
		t.Fatalf("MeanCI95(nil) = %+v", ci)
	}
	ci := MeanCI95([]float64{42})
	if ci.Mean != 42 || ci.HalfWidth != 0 || ci.N != 1 {
		t.Fatalf("MeanCI95(single) = %+v", ci)
	}
}

func TestTCriticalMonotoneTowardNormal(t *testing.T) {
	prev := tCritical95(1)
	for df := 2; df <= 400; df++ {
		cur := tCritical95(df)
		if cur > prev+1e-9 {
			t.Fatalf("tCritical95 increased at df=%d: %v > %v", df, cur, prev)
		}
		prev = cur
	}
	if got := tCritical95(10000); got != 1.960 {
		t.Fatalf("tCritical95(10000) = %v, want 1.960", got)
	}
	if !math.IsNaN(tCritical95(0)) {
		t.Fatal("tCritical95(0) should be NaN")
	}
}

func TestCDFAtAndQuantile(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {9, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	q, err := c.Quantile(0.5)
	if err != nil || q != 2 {
		t.Fatalf("Quantile(0.5) = %v, %v; want 2", q, err)
	}
	q, _ = c.Quantile(1)
	if q != 4 {
		t.Fatalf("Quantile(1) = %v, want 4", q)
	}
	q, _ = c.Quantile(0)
	if q != 1 {
		t.Fatalf("Quantile(0) = %v, want 1", q)
	}
	if _, err := NewCDF(nil).Quantile(0.5); err != ErrEmpty {
		t.Fatalf("empty Quantile err = %v, want ErrEmpty", err)
	}
}

func TestCDFCurveSpansRangeInPercent(t *testing.T) {
	c := NewCDF([]float64{0, 10})
	pts := c.Curve(10)
	if len(pts) != 11 {
		t.Fatalf("Curve len = %d, want 11", len(pts))
	}
	if pts[0].X != 0 || pts[len(pts)-1].X != 10 {
		t.Fatalf("Curve endpoints wrong: %+v .. %+v", pts[0], pts[len(pts)-1])
	}
	if pts[len(pts)-1].P != 100 {
		t.Fatalf("final P = %v, want 100", pts[len(pts)-1].P)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].P < pts[i-1].P {
			t.Fatalf("CDF curve not monotone at %d: %v", i, pts)
		}
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	h.Add(-5, 1)   // clamps to bucket 0
	h.Add(0, 2)    // bucket 0
	h.Add(55, 3)   // bucket 5
	h.Add(99.9, 4) // bucket 9
	h.Add(100, 5)  // clamps to bucket 9
	if len(h.Buckets[0]) != 2 {
		t.Fatalf("bucket 0 = %v", h.Buckets[0])
	}
	if len(h.Buckets[5]) != 1 || h.Buckets[5][0] != 3 {
		t.Fatalf("bucket 5 = %v", h.Buckets[5])
	}
	if len(h.Buckets[9]) != 2 {
		t.Fatalf("bucket 9 = %v", h.Buckets[9])
	}
	if got := h.BucketCenter(0); got != 5 {
		t.Fatalf("BucketCenter(0) = %v, want 5", got)
	}
	ms := h.MeansCI95()
	if ms[5].Mean != 3 || ms[5].N != 1 {
		t.Fatalf("MeansCI95[5] = %+v", ms[5])
	}
	if ms[1].N != 0 {
		t.Fatalf("empty bucket should have N=0: %+v", ms[1])
	}
}

func TestHistogramPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram(0,0,0) did not panic")
		}
	}()
	NewHistogram(0, 0, 0)
}

// Property: CDF.At is monotone non-decreasing and bounded by [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []int16, probe []int16) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		c := NewCDF(xs)
		prevX, prevP := math.Inf(-1), 0.0
		ps := make([]float64, len(probe))
		for i, v := range probe {
			ps[i] = float64(v)
		}
		// Probe in sorted order.
		cdfSorted := NewCDF(ps)
		for _, pt := range cdfSorted.sorted {
			p := c.At(pt)
			if p < 0 || p > 1 {
				return false
			}
			if pt >= prevX && p < prevP {
				return false
			}
			prevX, prevP = pt, p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile and At are inverse-ish: At(Quantile(p)) >= p.
func TestQuantileAtInverseProperty(t *testing.T) {
	f := func(raw []int8, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		p := float64(pRaw) / 255
		c := NewCDF(xs)
		q, err := c.Quantile(p)
		if err != nil {
			return false
		}
		return c.At(q) >= p-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
