package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianIQRCoV(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := iqr(xs); got != 4 { // quartiles 3 and 7
		t.Errorf("iqr = %v, want 4", got)
	}
	// mean 5, sample variance 10.
	if got, want := cov(xs), math.Sqrt(10)/5; !near(got, want) {
		t.Errorf("cov = %v, want %v", got, want)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even-length median = %v, want 2.5", got)
	}
	if median(nil) != 0 || iqr(nil) != 0 || cov(nil) != 0 || cov([]float64{3}) != 0 {
		t.Error("empty and single-sample inputs must read 0")
	}
	if xs[0] != 9 {
		t.Error("median sorted its argument in place")
	}
}

func TestEstimateResolved(t *testing.T) {
	// 16 reps at 8% CoV: the median's standard error is 1.2533·8%/4 ≈ 2.5%,
	// inside half of a 10% bound and outside half of a 4% one.
	e := estimate{Value: 100, Reps: 16, CoV: 0.08}
	if !near(e.medianRSE(), 1.2533*0.08/4) {
		t.Errorf("medianRSE = %v", e.medianRSE())
	}
	if !e.resolved(0.10) {
		t.Error("2.5% standard error must resolve against a 10% bound")
	}
	if e.resolved(0.04) {
		t.Error("2.5% standard error must not resolve against a 4% bound")
	}
}

func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true},
		{999, 0.99, false}, // 9.99 samples beyond p99
		{999, 0.90, true},
		{1436, 0.99, true}, // two metrics_rw reps pooled
		{718, 0.99, false}, // one rep alone
	} {
		if got := tenBeyond(c.n, c.p); got != c.want {
			t.Errorf("tenBeyond(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestClampSubAndRatio(t *testing.T) {
	if got := clampSub(7, 4); got != 3 {
		t.Errorf("clampSub(7,4) = %v", got)
	}
	if got := clampSub(4, 7); got != 0 {
		t.Errorf("a negative subtractive figure must clamp at 0, got %v", got)
	}
	if ratio(1, 0) != 0 || ratio(6, 3) != 2 {
		t.Error("ratio")
	}
}

func TestWorsening(t *testing.T) {
	// Lower-is-better: 110 against 100 is 10% worse. Higher-is-better: 90
	// against 100 is 10% worse. Order of the two readings is irrelevant.
	for _, c := range []struct {
		better string
		a, b   float64
		want   float64
	}{
		{"lower", 100, 110, 0.10},
		{"lower", 110, 100, 0.10},
		{"higher", 100, 90, 0.10},
		{"higher", 90, 100, 0.10},
		{"lower", 5, 5, 0},
	} {
		if got := worsening(c.better, c.a, c.b); !near(got, c.want) {
			t.Errorf("worsening(%s, %v, %v) = %v, want %v", c.better, c.a, c.b, got, c.want)
		}
	}
}

func TestPairedExcess(t *testing.T) {
	a := []repResult{{wall: 110}, {wall: 240}, {wall: 90}}
	b := []repResult{{wall: 100}, {wall: 200}, {wall: 100}, {wall: 1}}
	// Pairs: +10%, +20%, −10% → median +10%; b's unpaired fourth rep is ignored.
	if got := pairedExcess(a, b); !near(got, 0.10) {
		t.Errorf("pairedExcess = %v, want 0.10", got)
	}
}
