package experiments

import (
	"strings"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/borg"
)

func TestFig3Shape(t *testing.T) {
	fig := Fig3MemoryCDF(1, 5000)
	if fig.ID != "fig3" || len(fig.Series) != 1 {
		t.Fatalf("fig = %+v", fig)
	}
	pts := fig.Series[0].Points
	if pts[len(pts)-1].Y != 100 {
		t.Fatalf("CDF does not reach 100%%: %v", pts[len(pts)-1])
	}
	if pts[len(pts)-1].X > borg.MaxMemFraction {
		t.Fatalf("memory fraction beyond 0.5: %v", pts[len(pts)-1].X)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Fatal("CDF not monotone")
		}
	}
}

func TestFig4Shape(t *testing.T) {
	fig := Fig4DurationCDF(1, 5000)
	pts := fig.Series[0].Points
	if got := pts[len(pts)-1].X; got > 300 {
		t.Fatalf("duration beyond 300 s: %v", got)
	}
	if pts[len(pts)-1].Y != 100 {
		t.Fatal("CDF does not reach 100%")
	}
}

func TestFig5Shape(t *testing.T) {
	fig := Fig5Concurrency(1, 10*time.Minute)
	pts := fig.Series[0].Points
	if len(pts) < 100 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Y < 120000 || p.Y > 150000 {
			t.Fatalf("concurrency %v outside Fig. 5 range", p.Y)
		}
	}
	if pts[len(pts)-1].X != 24 {
		t.Fatalf("profile does not span 24 h: last x = %v", pts[len(pts)-1].X)
	}
}

func TestFig6TwoSlopeTrend(t *testing.T) {
	fig := Fig6Startup(1, 60)
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	psw, alloc := fig.Series[0], fig.Series[1]
	// PSW flat ~100 ms at every size.
	for _, p := range psw.Points {
		if p.Y < 90 || p.Y > 110 {
			t.Fatalf("PSW startup %v ms at %v MiB, want ~100", p.Y, p.X)
		}
	}
	// Allocation monotone in size with a jump after the 93.5 MiB knee.
	for i := 1; i < len(alloc.Points); i++ {
		if alloc.Points[i].Y < alloc.Points[i-1].Y {
			t.Fatal("allocation time not monotone")
		}
	}
	knee := alloc.Points[3] // 93.5 MiB
	top := alloc.Points[4]  // 128 MiB
	// 34.5 MiB beyond the knee at 4.5 ms/MiB plus the 200 ms jump.
	if top.Y-knee.Y < 300 {
		t.Fatalf("no paging jump: knee %v ms, top %v ms", knee.Y, top.Y)
	}
	// Total at 128 MiB near the paper's ~600 ms.
	total := psw.Points[4].Y + top.Y
	if total < 550 || total > 650 {
		t.Fatalf("total at 128 MiB = %v ms, want ~600", total)
	}
	if len(psw.CI) != len(psw.Points) || len(alloc.CI) != len(alloc.Points) {
		t.Fatal("missing confidence intervals")
	}
}

func TestFig6Deterministic(t *testing.T) {
	a := Fig6Startup(7, 30)
	b := Fig6Startup(7, 30)
	for i := range a.Series {
		for j := range a.Series[i].Points {
			if a.Series[i].Points[j] != b.Series[i].Points[j] {
				t.Fatal("Fig6 not deterministic for equal seeds")
			}
		}
	}
}

func TestRender(t *testing.T) {
	fig := Fig3MemoryCDF(1, 1000)
	var sb strings.Builder
	if err := fig.Render(&sb, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "FIG3") || !strings.Contains(out, "series:") {
		t.Fatalf("render output:\n%s", out)
	}
	// Downsampling respected.
	if got := strings.Count(out, "\n   "); got > 14+len(fig.Notes) {
		t.Fatalf("render emitted too many rows: %d", got)
	}
}

func TestSampleIndexes(t *testing.T) {
	if got := sampleIndexes(0, 5); got != nil {
		t.Fatalf("sampleIndexes(0) = %v", got)
	}
	got := sampleIndexes(3, 10)
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("small n = %v", got)
	}
	got = sampleIndexes(100, 10)
	if len(got) != 10 || got[0] != 0 || got[9] != 99 {
		t.Fatalf("downsampled = %v", got)
	}
}
