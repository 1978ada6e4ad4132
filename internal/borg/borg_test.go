package borg

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/stats"
)

func TestEvalSliceMatchesPaperCounts(t *testing.T) {
	tr := NewGenerator(DefaultConfig(1)).EvalSlice()
	if got := tr.Len(); got != EvalJobCount {
		t.Fatalf("jobs = %d, want %d", got, EvalJobCount)
	}
	// "44 jobs out of 663 show this behavior" (§VI-F).
	if got := tr.OverAllocatorCount(); got != EvalOverAllocators {
		t.Fatalf("over-allocators = %d, want %d", got, EvalOverAllocators)
	}
	if tr.Horizon != time.Hour {
		t.Fatalf("horizon = %v, want 1h", tr.Horizon)
	}
}

func TestEvalSliceJobBounds(t *testing.T) {
	tr := NewGenerator(DefaultConfig(2)).EvalSlice()
	var prev time.Duration
	for _, j := range tr.Jobs {
		if j.Submit < 0 || j.Submit >= time.Hour {
			t.Fatalf("job %d submit %v outside window", j.ID, j.Submit)
		}
		if j.Submit < prev {
			t.Fatalf("submissions not ordered at job %d", j.ID)
		}
		prev = j.Submit
		if j.Duration <= 0 || j.Duration > MaxDuration {
			t.Fatalf("job %d duration %v outside (0, 300s]", j.ID, j.Duration)
		}
		if j.MaxMemFrac <= 0 || j.MaxMemFrac > EvalMaxMemFraction {
			t.Fatalf("job %d max frac %g outside (0, %g]", j.ID, j.MaxMemFrac, EvalMaxMemFraction)
		}
		if j.AssignedMemFrac <= 0 || j.AssignedMemFrac > EvalMaxMemFraction {
			t.Fatalf("job %d assigned frac %g out of range", j.ID, j.AssignedMemFrac)
		}
	}
}

func TestEvalSliceDeterministicPerSeed(t *testing.T) {
	a := NewGenerator(DefaultConfig(42)).EvalSlice()
	b := NewGenerator(DefaultConfig(42)).EvalSlice()
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatal("lengths differ")
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs: %+v vs %+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
	c := NewGenerator(DefaultConfig(43)).EvalSlice()
	same := true
	for i := range a.Jobs {
		if a.Jobs[i] != c.Jobs[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestFullDayDistributions(t *testing.T) {
	tr := NewGenerator(DefaultConfig(3)).FullDay(20000)
	if tr.Len() != 20000 {
		t.Fatalf("jobs = %d", tr.Len())
	}

	// Fig. 4: all jobs last at most 300 s; CDF rises over the range.
	durs := stats.NewCDF(tr.DurationsSeconds())
	if q, _ := durs.Quantile(1); q > 300 {
		t.Fatalf("max duration %v > 300", q)
	}
	if p := durs.At(85); p < 0.4 || p > 0.8 {
		t.Fatalf("CDF(85s) = %v, want mid-range", p)
	}

	// Fig. 3: memory fractions bounded by 0.5, bulk below 0.1.
	fracs := stats.NewCDF(tr.MemFractions())
	if q, _ := fracs.Quantile(1); q > MaxMemFraction {
		t.Fatalf("max frac %v > 0.5", q)
	}
	if p := fracs.At(0.1); p < 0.5 {
		t.Fatalf("CDF(0.1) = %v, want most jobs below 0.1", p)
	}

	// Mean fraction near the calibration target (~0.075).
	mean := stats.Mean(tr.MemFractions())
	if mean < 0.05 || mean > 0.11 {
		t.Fatalf("mean frac = %v, want ~0.075", mean)
	}

	// Jobs ordered by submission, IDs sequential in stream order — the
	// 1-in-1200 sampling semantics depend on this.
	for i := 1; i < tr.Len(); i++ {
		if tr.Jobs[i].Submit < tr.Jobs[i-1].Submit {
			t.Fatal("jobs not ordered by submission")
		}
		if tr.Jobs[i].ID != int64(i+1) {
			t.Fatalf("IDs not sequential: %d at %d", tr.Jobs[i].ID, i)
		}
	}
}

func TestConcurrencyProfileShape(t *testing.T) {
	g := NewGenerator(DefaultConfig(4))
	pts := g.ConcurrencyProfile(10 * time.Minute)
	if len(pts) != 145 { // 24h / 10min + 1
		t.Fatalf("points = %d", len(pts))
	}
	lo, hi := pts[0].Jobs, pts[0].Jobs
	var minAt time.Duration
	for _, p := range pts {
		if p.Jobs < lo {
			lo = p.Jobs
			minAt = p.Offset
		}
		if p.Jobs > hi {
			hi = p.Jobs
		}
	}
	// Fig. 5's y-range is ~125k-145k.
	if lo < 120000 || hi > 150000 {
		t.Fatalf("profile range [%v, %v] outside Fig. 5's", lo, hi)
	}
	// The minimum falls inside (or near) the evaluation window — that is
	// why the paper picked it.
	if minAt < EvalWindowStart-2*time.Hour || minAt > EvalWindowEnd+2*time.Hour {
		t.Fatalf("minimum at %v, want near [%v, %v]", minAt, EvalWindowStart, EvalWindowEnd)
	}
}

func TestWindow(t *testing.T) {
	tr := &Trace{Horizon: 10 * time.Second}
	for i := 0; i < 10; i++ {
		tr.Jobs = append(tr.Jobs, Job{ID: int64(i), Submit: time.Duration(i) * time.Second, Duration: time.Second})
	}
	w := tr.Window(3*time.Second, 7*time.Second)
	if w.Len() != 4 || w.Horizon != 4*time.Second {
		t.Fatalf("window = %d jobs, %v", w.Len(), w.Horizon)
	}
	if w.Jobs[0].Submit != 0 || w.Jobs[0].ID != 3 {
		t.Fatalf("window not re-based: %+v", w.Jobs[0])
	}
}

func TestMemoryScaling(t *testing.T) {
	// §VI-B: SGX jobs scale to 93.5 MiB, standard jobs to 32 GiB.
	if got := SGXMemBytes(1.0); got != 93*resource.MiB+512*resource.KiB {
		t.Fatalf("SGXMemBytes(1) = %d", got)
	}
	if got := StandardMemBytes(0.5); got != 16*resource.GiB {
		t.Fatalf("StandardMemBytes(0.5) = %d", got)
	}
	frac := 0.1
	if got := SGXMemBytes(frac); got != int64(frac*float64(SGXMemoryScale)) {
		t.Fatalf("SGXMemBytes(0.1) = %d", got)
	}
}

func TestTotalDuration(t *testing.T) {
	tr := &Trace{Jobs: []Job{{Duration: time.Minute}, {Duration: 2 * time.Minute}}}
	if got := tr.TotalDuration(); got != 3*time.Minute {
		t.Fatalf("TotalDuration = %v", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := NewGenerator(DefaultConfig(5)).EvalSlice()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip lost jobs: %d vs %d", back.Len(), tr.Len())
	}
	for i := range tr.Jobs {
		a, b := tr.Jobs[i], back.Jobs[i]
		if a.ID != b.ID || a.Submit != b.Submit || a.Duration != b.Duration ||
			a.AssignedMemFrac != b.AssignedMemFrac || a.MaxMemFrac != b.MaxMemFrac {
			t.Fatalf("job %d mismatch:\n%+v\n%+v", i, a, b)
		}
	}
	if got := back.OverAllocatorCount(); got != EvalOverAllocators {
		t.Fatalf("over-allocators after round trip = %d", got)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"bad header", "a,b,c,d,e\n"},
		{"bad id", "job_id,submit_us,duration_us,assigned_mem_frac,max_mem_frac\nx,0,0,0,0\n"},
		{"negative submit", "job_id,submit_us,duration_us,assigned_mem_frac,max_mem_frac\n1,-5,0,0,0\n"},
		{"frac out of range", "job_id,submit_us,duration_us,assigned_mem_frac,max_mem_frac\n1,0,0,2.0,0\n"},
		{"wrong fields", "job_id,submit_us,duration_us,assigned_mem_frac,max_mem_frac\n1,0,0\n"},
	}
	for _, tc := range cases {
		if _, err := ReadCSV(strings.NewReader(tc.input)); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// Property: over-allocators always advertise less than they use; honest
// jobs never do.
func TestAdvertisementConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := NewGenerator(DefaultConfig(seed)).EvalSlice()
		for _, j := range tr.Jobs {
			if j.OverAllocates() && j.AssignedMemFrac >= j.MaxMemFrac {
				return false
			}
			if !j.OverAllocates() && j.AssignedMemFrac < j.MaxMemFrac {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: windowing keeps exactly the jobs submitted inside the window,
// re-based to its start.
func TestWindowProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := NewGenerator(DefaultConfig(seed)).FullDay(2000)
		w := tr.Window(2*time.Hour, 4*time.Hour)
		inside := 0
		for _, j := range tr.Jobs {
			if j.Submit >= 2*time.Hour && j.Submit < 4*time.Hour {
				inside++
			}
		}
		if w.Len() != inside {
			return false
		}
		for _, j := range w.Jobs {
			if j.Submit < 0 || j.Submit >= 2*time.Hour {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
