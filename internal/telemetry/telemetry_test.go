package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

func TestNilRegistryIsFullNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", nil)
	cv := r.CounterVec("cv", "class")
	gv := r.GaugeVec("gv", "class")
	hv := r.HistogramVec("hv", "class", nil)

	c.Add(5)
	c.Inc()
	g.Set(3.5)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	cv.With("a").Inc()
	gv.With("a").Set(1)
	hv.With("a").Observe(1)
	r.RegisterCollector(func() { t.Fatal("collector ran on nil registry") })
	r.Collect()
	r.ScrapeInto(nil)

	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil handles must read zero")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry export: %q err=%v", sb.String(), err)
	}
	var ring *TraceRing
	ring.Record(PassTrace{})
	if ring.Snapshot() != nil {
		t.Fatal("nil ring must read empty")
	}
}

func TestCounterGaugeSharedHandles(t *testing.T) {
	r := New()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Fatal("same name must return the same counter handle")
	}
	a.Add(2)
	b.Inc()
	if a.Value() != 3 {
		t.Fatalf("counter = %d, want 3", a.Value())
	}
	a.Add(-5) // negative deltas ignored: counters are monotonic
	if a.Value() != 3 {
		t.Fatalf("counter after negative add = %d, want 3", a.Value())
	}
	g := r.Gauge("y")
	g.Set(1.5)
	g.Set(-2.25)
	if g.Value() != -2.25 {
		t.Fatalf("gauge = %v, want -2.25", g.Value())
	}
	if r.CounterVec("v", "class").With("a") != r.CounterVec("v", "class").With("a") {
		t.Fatal("vec handles with the same (name, label) must be shared")
	}
}

// TestNameRegisteredAsTwoKindsPanics: a name is one kind. A second kind
// under the same name would export its samples under the first kind's
// TYPE line, so the registry refuses it, naming both kinds, and keeps
// exporting the first alone.
func TestNameRegisteredAsTwoKindsPanics(t *testing.T) {
	cases := []struct {
		first, second      string
		register, conflict func(r *Registry)
	}{
		{"counter", "gauge",
			func(r *Registry) { r.Counter("x").Inc() },
			func(r *Registry) { r.Gauge("x").Set(2) }},
		{"gauge", "histogram",
			func(r *Registry) { r.Gauge("x").Set(2) },
			func(r *Registry) { r.Histogram("x", nil).Observe(1) }},
		{"histogram", "counter",
			func(r *Registry) { r.HistogramVec("x", "stage", nil).With("a").Observe(1) },
			func(r *Registry) { r.CounterVec("x", "class").With("b").Inc() }},
	}
	for _, tc := range cases {
		r := New()
		tc.register(r)
		var before strings.Builder
		if err := r.WritePrometheus(&before); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, tc.first) || !strings.Contains(msg, tc.second) {
					t.Errorf("%s then %s: panic %q, want one naming both kinds", tc.first, tc.second, msg)
				}
			}()
			tc.conflict(r)
		}()
		var after strings.Builder
		if err := r.WritePrometheus(&after); err != nil {
			t.Fatal(err)
		}
		if after.String() != before.String() {
			t.Errorf("%s then %s: export changed:\n%s\nwant:\n%s", tc.first, tc.second, after.String(), before.String())
		}
	}
}

func TestHistogramCountsSumAndBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 106 {
		t.Fatalf("sum = %v, want 106", h.Sum())
	}
	cum, count, sum := h.snapshotBuckets()
	// le=1: {0.5, 1}; le=2: +{1.5}; le=4: +{3}; +Inf: +{100}.
	want := []int64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cum[%d] = %d, want %d (all %v)", i, cum[i], w, cum)
		}
	}
	if count != 5 || sum != 106 {
		t.Fatalf("snapshot count=%d sum=%v", count, sum)
	}
}

func TestHistogramQuantileEstimate(t *testing.T) {
	r := New()
	h := r.Histogram("h", []float64{1, 2, 4, 8})
	if h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	// 100 observations uniform in (0, 4]: p50 ≈ 2, p99 ≈ 4.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.04)
	}
	if p50 := h.Quantile(0.5); p50 < 1 || p50 > 3 {
		t.Fatalf("p50 = %v, want ≈2", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 2 || p99 > 4 {
		t.Fatalf("p99 = %v, want ≈4", p99)
	}
	// The overflow bucket reports the largest finite bound.
	h2 := r.Histogram("h2", []float64{1})
	h2.Observe(50)
	if got := h2.Quantile(0.99); got != 1 {
		t.Fatalf("overflow quantile = %v, want 1", got)
	}
}

// TestHistogramQuantileBracketsExact: the bucket estimate must bracket
// the exact quantile within one bucket width — the property that makes
// self-scraped p99s trustworthy.
func TestHistogramQuantileBracketsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := New()
	h := r.Histogram("h", DefBuckets)
	var vals []float64
	for i := 0; i < 5000; i++ {
		v := math.Abs(rng.NormFloat64()) * 2
		vals = append(vals, v)
		h.Observe(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		est := h.Quantile(q)
		// Exact quantile by sorting.
		sorted := append([]float64(nil), vals...)
		for i := range sorted {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] < sorted[i] {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		exact := sorted[int(q*float64(len(sorted)))-1]
		// The estimate must land in the same bucket as the exact value:
		// both bounded by the bucket's neighbours.
		lo, hi := 0.0, math.Inf(1)
		for i, b := range DefBuckets {
			if exact <= b {
				hi = b
				if i > 0 {
					lo = DefBuckets[i-1]
				}
				break
			}
		}
		if est < lo || est > hi {
			t.Fatalf("q=%v estimate %v outside exact bucket [%v, %v]", q, est, lo, hi)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := New()
	r.Counter("passes_total").Add(3)
	r.CounterVec("bound_total", "class").With("batch").Add(2)
	r.Gauge("pending_depth").Set(7)
	h := r.Histogram("lat", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(5)
	collected := false
	r.RegisterCollector(func() { collected = true; r.Gauge("pending_depth").Set(9) })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !collected {
		t.Fatal("export must run collectors")
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE passes_total counter",
		"passes_total 3",
		`bound_total{class="batch"} 2`,
		"# TYPE pending_depth gauge",
		"pending_depth 9",
		"# TYPE lat histogram",
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="2"} 1`,
		`lat_bucket{le="+Inf"} 2`,
		"lat_sum 5.5",
		"lat_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestScrapeIntoTSDB(t *testing.T) {
	clk := clock.NewSim()
	db := tsdb.New(clk)
	defer db.Close()
	r := New()
	r.Counter("binds_total").Add(4)
	r.GaugeVec("depth", "class").With("batch").Set(2)
	h := r.HistogramVec("wait_seconds", "class", []float64{1, 10}).With("batch")
	h.Observe(0.5)
	h.Observe(6)

	r.ScrapeInto(db)

	read := func(measurement string, match map[string]string) (float64, bool) {
		var got float64
		found := false
		for _, s := range db.Series(measurement) {
			ok := true
			for k, v := range match {
				if s.Tags[k] != v {
					ok = false
					break
				}
			}
			if ok && len(s.Points) > 0 {
				got = s.Points[len(s.Points)-1].Value
				found = true
			}
		}
		return got, found
	}
	if v, ok := read("self/binds_total", nil); !ok || v != 4 {
		t.Fatalf("self/binds_total = %v ok=%v", v, ok)
	}
	if v, ok := read("self/depth", map[string]string{"class": "batch"}); !ok || v != 2 {
		t.Fatalf("self/depth = %v ok=%v", v, ok)
	}
	if v, ok := read("self/wait_seconds", map[string]string{"class": "batch", TagStat: "count"}); !ok || v != 2 {
		t.Fatalf("wait count = %v ok=%v", v, ok)
	}
	if v, ok := read("self/wait_seconds", map[string]string{"class": "batch", TagQuantile: "0.99"}); !ok || v <= 0 {
		t.Fatalf("wait p99 = %v ok=%v", v, ok)
	}

	// A self-scrape armed on the sim clock writes on its cadence.
	stop := clock.Periodic(clk, 10*time.Second, func() { r.ScrapeInto(db) })
	defer stop()
	r.Counter("binds_total").Add(1)
	clk.Advance(10 * time.Second)
	if v, ok := read("self/binds_total", nil); !ok || v != 5 {
		t.Fatalf("after periodic scrape binds_total = %v ok=%v", v, ok)
	}
}

func TestTraceRingWrapAndOrder(t *testing.T) {
	ring := NewTraceRing(4)
	if len(ring.buf) != 4 {
		t.Fatalf("cap = %d", len(ring.buf))
	}
	spans := []Span{{Stage: StageBind, Dur: time.Millisecond, Count: 1}}
	for i := 1; i <= 10; i++ {
		ring.Record(PassTrace{Scheduler: "s", Seq: int64(i), Spans: spans})
	}
	got := ring.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d traces, want 4", len(got))
	}
	for i, tr := range got {
		if want := int64(7 + i); tr.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d", i, tr.Seq, want)
		}
	}
	// Recorded spans are copies: mutating the caller's buffer must not
	// change retained traces.
	spans[0].Dur = time.Hour
	if got2 := ring.Snapshot(); got2[3].Spans[0].Dur != time.Millisecond {
		t.Fatal("ring must copy spans on record")
	}
}

func TestDisabledHandlesAllocFree(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", nil)
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(1)
		h.Observe(1)
		h.ObserveDuration(time.Second)
	})
	if allocs != 0 {
		t.Fatalf("disabled handles allocated %v/op", allocs)
	}
}

func TestEnabledHandlesAllocFree(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", nil)
	hv := r.HistogramVec("hv", "class", nil).With("batch")
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(1)
		h.Observe(0.01)
		hv.ObserveDuration(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("enabled handles allocated %v/op", allocs)
	}
}

// TestScrapeIntoExactTagSetsFromOneScratchMap: the self-scrape refills
// one tag map for every write, so each series must carry exactly its own
// tags — nothing left over from the series written before it — and a
// scrape's allocations must not grow with the number of series.
func TestScrapeIntoExactTagSetsFromOneScratchMap(t *testing.T) {
	build := func(classes int) (*Registry, *tsdb.DB, func()) {
		clk := clock.NewSim()
		db := tsdb.New(clk, tsdb.WithGCInterval(0), tsdb.WithRetention(time.Minute))
		r := New()
		r.Counter("binds_total").Add(4)
		for i := 0; i < classes; i++ {
			class := fmt.Sprintf("c%02d", i)
			r.GaugeVec("depth", "class").With(class).Set(float64(i))
			r.HistogramVec("wait_seconds", "class", []float64{1, 10}).With(class).Observe(0.5)
		}
		r.Histogram("pass_seconds", []float64{1, 10}).Observe(2)
		return r, db, func() {
			clk.Advance(10 * time.Second)
			r.ScrapeInto(db)
		}
	}

	_, db, scrape := build(2)
	scrape()
	var got []string
	for _, m := range db.Measurements() {
		for _, s := range db.Series(m) {
			keys := make([]string, 0, len(s.Tags))
			for k, v := range s.Tags {
				keys = append(keys, k+"="+v)
			}
			sort.Strings(keys)
			got = append(got, m+"{"+strings.Join(keys, ",")+"}")
		}
	}
	want := []string{
		"self/binds_total{}",
		"self/depth{class=c00}", "self/depth{class=c01}",
		"self/pass_seconds{quantile=0.5}", "self/pass_seconds{quantile=0.99}",
		"self/pass_seconds{stat=count}", "self/pass_seconds{stat=sum}",
		"self/wait_seconds{class=c00,quantile=0.5}", "self/wait_seconds{class=c00,quantile=0.99}",
		"self/wait_seconds{class=c00,stat=count}", "self/wait_seconds{class=c00,stat=sum}",
		"self/wait_seconds{class=c01,quantile=0.5}", "self/wait_seconds{class=c01,quantile=0.99}",
		"self/wait_seconds{class=c01,stat=count}", "self/wait_seconds{class=c01,stat=sum}",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("series written:\n%v\nwant:\n%v", got, want)
	}

	if raceEnabled {
		return // its instrumentation allocates
	}
	perScrape := func(classes int) float64 {
		_, _, scrape := build(classes)
		for i := 0; i < 16; i++ { // point slices reach their retention size
			scrape()
		}
		return testing.AllocsPerRun(20, scrape)
	}
	if few, many := perScrape(2), perScrape(32); few != many {
		t.Fatalf("a self-scrape allocates %v times over 2 classes and %v over 32, want the same", few, many)
	}
}

// TestSelfScrapeOverExistingSeriesAllocatesNothing: once every series
// exists and its point slice has its retention size, a self-scrape walks
// the registration-ordered keys and refills the registry's one tag map,
// and writes points in place — no key slice, sort or map per scrape.
func TestSelfScrapeOverExistingSeriesAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	clk := clock.NewSim()
	// Retention below the step: each write prunes the series' last point.
	db := tsdb.New(clk, tsdb.WithGCInterval(0), tsdb.WithRetention(5*time.Second))
	r := New()
	r.Counter("binds_total").Add(4)
	r.GaugeVec("depth", "class").With("batch").Set(2)
	r.Gauge("lag").Set(1)
	r.HistogramVec("wait_seconds", "class", []float64{1, 10}).With("batch").Observe(0.5)
	r.Histogram("pass_seconds", nil).Observe(0.002)
	scrape := func() {
		clk.Advance(10 * time.Second)
		r.ScrapeInto(db)
	}
	for range 4 {
		scrape()
	}
	if got := testing.AllocsPerRun(20, scrape); got != 0 {
		t.Fatalf("a self-scrape over existing series allocates %v times, want 0", got)
	}
}
