package borg

import (
	"bytes"
	"encoding/csv"
	"errors"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/sgxorch/sgxorch/internal/resource"
	"github.com/sgxorch/sgxorch/internal/stats"
)

func TestEvalSliceMatchesPaperCounts(t *testing.T) {
	tr := NewGenerator(1).EvalSlice()
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
	tr := NewGenerator(2).EvalSlice()
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
	a := NewGenerator(42).EvalSlice()
	b := NewGenerator(42).EvalSlice()
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatal("lengths differ")
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs: %+v vs %+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
	c := NewGenerator(43).EvalSlice()
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
	tr := NewGenerator(3).FullDay(20000)
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
	g := NewGenerator(4)
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

// TestCSVRoundTrip decodes WriteCSV's export of the eval slice with
// encoding/csv and strconv alone and wants every field of every job
// back: the export is lossless.
func TestCSVRoundTrip(t *testing.T) {
	tr := NewGenerator(5).EvalSlice()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != tr.Len()+1 {
		t.Fatalf("records = %d, want a header and %d jobs", len(recs), tr.Len())
	}
	if got, want := strings.Join(recs[0], ","), strings.Join(csvHeader, ","); got != want {
		t.Fatalf("header = %s, want %s", got, want)
	}
	for i, a := range tr.Jobs {
		rec := recs[i+1]
		id, err1 := strconv.ParseInt(rec[0], 10, 64)
		submit, err2 := strconv.ParseInt(rec[1], 10, 64)
		dur, err3 := strconv.ParseInt(rec[2], 10, 64)
		assigned, err4 := strconv.ParseFloat(rec[3], 64)
		maxFrac, err5 := strconv.ParseFloat(rec[4], 64)
		if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		b := Job{
			ID:              id,
			Submit:          time.Duration(submit) * time.Microsecond,
			Duration:        time.Duration(dur) * time.Microsecond,
			AssignedMemFrac: assigned,
			MaxMemFrac:      maxFrac,
		}
		if a != b {
			t.Fatalf("job %d mismatch:\n%+v\n%+v", i, a, b)
		}
	}
}

// Property: over-allocators always advertise less than they use; honest
// jobs never do.
func TestAdvertisementConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := NewGenerator(seed).EvalSlice()
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
