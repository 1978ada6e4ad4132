package tsdb

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/clock"
)

func TestWriteAndSeries(t *testing.T) {
	clk := clock.NewSim()
	db := New(clk)
	db.WriteNow("sgx/epc", Tags{"pod_name": "a", "nodename": "n1"}, 100)
	clk.Advance(time.Second)
	db.WriteNow("sgx/epc", Tags{"pod_name": "a", "nodename": "n1"}, 200)
	db.WriteNow("sgx/epc", Tags{"pod_name": "b", "nodename": "n1"}, 300)
	db.WriteNow("memory/usage", Tags{"pod_name": "a", "nodename": "n2"}, 400)

	series := db.Series("sgx/epc")
	if len(series) != 2 {
		t.Fatalf("series count = %d, want 2", len(series))
	}
	// Deterministic order: tags sorted canonically (nodename before
	// pod_name, then values).
	if series[0].Tags["pod_name"] != "a" || series[1].Tags["pod_name"] != "b" {
		t.Fatalf("series order: %v / %v", series[0].Tags, series[1].Tags)
	}
	if len(series[0].Points) != 2 || series[0].Points[1].Value != 200 {
		t.Fatalf("points = %v", series[0].Points)
	}
	if got := db.Series("nothing"); len(got) != 0 {
		t.Fatalf("unknown measurement series = %v", got)
	}
}

func TestSeriesReturnsCopies(t *testing.T) {
	clk := clock.NewSim()
	db := New(clk)
	db.WriteNow("m", Tags{"k": "v"}, 1)
	s := db.Series("m")
	s[0].Points[0].Value = 999
	s[0].Tags["k"] = "mutated"
	s2 := db.Series("m")
	if s2[0].Points[0].Value != 1 || s2[0].Tags["k"] != "v" {
		t.Fatal("Series returned aliased data")
	}
}

func TestRetentionPruning(t *testing.T) {
	clk := clock.NewSim()
	db := New(clk, WithRetention(time.Minute))
	db.WriteNow("m", Tags{"k": "v"}, 1)
	clk.Advance(2 * time.Minute)
	// Writing triggers pruning of the expired point.
	db.WriteNow("m", Tags{"k": "v"}, 2)
	s := db.Series("m")
	if len(s[0].Points) != 1 || s[0].Points[0].Value != 2 {
		t.Fatalf("points after retention = %v", s[0].Points)
	}
}

func TestMeasurementsAndCount(t *testing.T) {
	clk := clock.NewSim()
	db := New(clk)
	db.WriteNow("b", Tags{"x": "1"}, 1)
	db.WriteNow("a", Tags{"x": "1"}, 1)
	db.WriteNow("a", Tags{"x": "2"}, 1)
	ms := db.Measurements()
	if len(ms) != 2 || ms[0] != "a" || ms[1] != "b" {
		t.Fatalf("Measurements = %v", ms)
	}
	if got := db.SeriesCount(); got != 3 {
		t.Fatalf("SeriesCount = %d, want 3", got)
	}
}

func TestTagsCanonicalOrderIndependent(t *testing.T) {
	a := Tags{"pod_name": "p", "nodename": "n"}
	b := Tags{"nodename": "n", "pod_name": "p"}
	if string(appendCanonical(nil, a)) != string(appendCanonical(nil, b)) {
		t.Fatal("canonical depends on map iteration order")
	}
}

func TestOutOfOrderWritesKeptTimeOrdered(t *testing.T) {
	clk := clock.NewSim()
	db := New(clk)
	base := clk.Now()
	for _, offset := range []time.Duration{5 * time.Second, time.Second, 3 * time.Second, 3 * time.Second, 2 * time.Second} {
		db.Write("m", Tags{"k": "v"}, offset.Seconds(), base.Add(offset))
	}
	s := db.Series("m")
	if len(s) != 1 {
		t.Fatalf("series = %d, want 1", len(s))
	}
	for i := 1; i < len(s[0].Points); i++ {
		if s[0].Points[i].Nanos < s[0].Points[i-1].Nanos {
			t.Fatalf("points not time-ordered: %v", s[0].Points)
		}
	}
	if len(s[0].Points) != 5 {
		t.Fatalf("points = %d, want 5", len(s[0].Points))
	}
}

func TestScanWindowSlicing(t *testing.T) {
	clk := clock.NewSim()
	db := New(clk)
	base := clk.Now()
	for i := 0; i < 10; i++ {
		db.Write("m", Tags{"k": "v"}, float64(i), base.Add(time.Duration(i)*time.Second))
	}
	clk.Advance(10 * time.Second)

	var got []float64
	db.Scan("m", base.Add(3*time.Second), base.Add(6*time.Second), func(tags Tags, pts []Point) bool {
		for _, p := range pts {
			got = append(got, p.Value)
		}
		return true
	})
	want := []float64{3, 4, 5, 6} // inclusive bounds
	if len(got) != len(want) {
		t.Fatalf("window values = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window values = %v, want %v", got, want)
		}
	}

	// Open bounds: zero from/to cover everything still retained.
	count := 0
	db.Scan("m", time.Time{}, time.Time{}, func(tags Tags, pts []Point) bool {
		count = len(pts)
		return true
	})
	if count != 10 {
		t.Fatalf("open scan saw %d points, want 10", count)
	}

	// Unknown measurement: no visits.
	db.Scan("nothing", time.Time{}, time.Time{}, func(Tags, []Point) bool {
		t.Fatal("visited unknown measurement")
		return false
	})
}

func TestScanStopsWhenCallbackReturnsFalse(t *testing.T) {
	clk := clock.NewSim()
	db := New(clk)
	db.WriteNow("m", Tags{"k": "a"}, 1)
	db.WriteNow("m", Tags{"k": "b"}, 2)
	visits := 0
	db.Scan("m", time.Time{}, time.Time{}, func(Tags, []Point) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("visits = %d, want 1", visits)
	}
}

func TestReadsNeverObserveExpiredPoints(t *testing.T) {
	clk := clock.NewSim()
	// GC disabled: only the read-side clamp can hide the stale point.
	db := New(clk, WithRetention(time.Minute), WithGCInterval(0))
	db.WriteNow("m", Tags{"k": "v"}, 1)
	clk.Advance(2 * time.Minute)

	if s := db.Series("m"); len(s) != 0 {
		t.Fatalf("Series returned expired points: %+v", s)
	}
	db.Scan("m", time.Time{}, time.Time{}, func(tags Tags, pts []Point) bool {
		t.Fatalf("Scan visited expired points: %v", pts)
		return false
	})
	// The idle series itself is still resident until a sweep runs.
	if got := db.SeriesCount(); got != 1 {
		t.Fatalf("SeriesCount = %d, want 1 before sweep", got)
	}
	if deleted := db.SweepNow(); deleted != 1 {
		t.Fatalf("SweepNow = %d, want 1", deleted)
	}
	if got := db.SeriesCount(); got != 0 {
		t.Fatalf("SeriesCount = %d, want 0 after sweep", got)
	}
}

func TestBackgroundSweepCollectsIdleSeries(t *testing.T) {
	clk := clock.NewSim()
	db := New(clk, WithRetention(time.Minute))
	defer db.Close()
	db.WriteNow("m", Tags{"pod": "a"}, 1)
	db.WriteNow("m", Tags{"pod": "b"}, 2)
	db.WriteNow("other", Tags{"pod": "a"}, 3)
	if got := db.SeriesCount(); got != 3 {
		t.Fatalf("SeriesCount = %d, want 3", got)
	}
	// No further writes: the clock-driven sweep must reclaim everything
	// once retention has elapsed.
	clk.Advance(3 * time.Minute)
	if got := db.SeriesCount(); got != 0 {
		t.Fatalf("SeriesCount = %d, want 0 after retention + sweep", got)
	}
	if ms := db.Measurements(); len(ms) != 0 {
		t.Fatalf("Measurements = %v, want none", ms)
	}
}

func TestSweepKeepsActiveSeries(t *testing.T) {
	clk := clock.NewSim()
	db := New(clk, WithRetention(time.Minute), WithGCInterval(0))
	db.WriteNow("m", Tags{"pod": "idle"}, 1)
	clk.Advance(50 * time.Second)
	db.WriteNow("m", Tags{"pod": "active"}, 2)
	clk.Advance(30 * time.Second) // idle now 80s old, active 30s old
	if deleted := db.SweepNow(); deleted != 1 {
		t.Fatalf("SweepNow = %d, want 1", deleted)
	}
	s := db.Series("m")
	if len(s) != 1 || s[0].Tags["pod"] != "active" {
		t.Fatalf("surviving series = %+v, want pod=active", s)
	}
}

func TestExplicitTimestampWrite(t *testing.T) {
	clk := clock.NewSim()
	db := New(clk)
	past := clk.Now().Add(-30 * time.Second)
	db.Write("m", Tags{"k": "v"}, 7, past)
	s := db.Series("m")
	if got := time.Unix(0, s[0].Points[0].Nanos); !got.Equal(past) {
		t.Fatalf("point time = %v, want %v", got, past)
	}
}

// TestOutOfRangeInstantsSaturate: time.Time.UnixNano is undefined before
// 1678 and after 2262. UnixNanos clamps such an instant to the end of the
// int64 range it lies beyond, so the database treats a point stamped
// there as it treats any other instant that far out: the zero time and
// year 1500 are expired on arrival, and year 2300 stays after every point
// of today.
func TestOutOfRangeInstantsSaturate(t *testing.T) {
	y1500 := time.Date(1500, time.January, 1, 0, 0, 0, 0, time.UTC)
	y2300 := time.Date(2300, time.January, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		at   time.Time
		want int64
	}{
		{time.Time{}, math.MinInt64},
		{y1500, math.MinInt64},
		{y2300, math.MaxInt64},
		{time.Unix(0, math.MinInt64), math.MinInt64},
		{time.Unix(0, math.MaxInt64), math.MaxInt64},
		{time.Unix(0, math.MaxInt64).Add(time.Nanosecond), math.MaxInt64},
		{time.Unix(0, math.MinInt64).Add(-time.Nanosecond), math.MinInt64},
		{clock.SimEpoch, clock.SimEpoch.UnixNano()},
	} {
		if got := UnixNanos(c.at); got != c.want {
			t.Errorf("UnixNanos(%v) = %d, want %d", c.at, got, c.want)
		}
	}

	clk := clock.NewSim()
	db := New(clk, WithGCInterval(0))
	now := clk.Now()
	tags := Tags{"k": "v"}
	db.Write("m", tags, 1, time.Time{})
	db.Write("m", tags, 2, y1500)
	db.Write("m", tags, 3, y2300)
	db.Write("m", tags, 4, now)
	want := []Point{{Nanos: now.UnixNano(), Value: 4}, {Nanos: math.MaxInt64, Value: 3}}
	if s := db.Series("m"); len(s) != 1 || !slices.Equal(s[0].Points, want) {
		t.Fatalf("Series = %+v, want one series of %v", s, want)
	}
	var scanned []Point
	db.Scan("m", time.Time{}, time.Time{}, func(_ Tags, pts []Point) bool {
		scanned = append(scanned, pts...)
		return true
	})
	if !slices.Equal(scanned, want) {
		t.Fatalf("open Scan visits %v, want %v", scanned, want)
	}
	scanned = scanned[:0]
	db.Scan("m", time.Time{}, now, func(_ Tags, pts []Point) bool {
		scanned = append(scanned, pts...)
		return true
	})
	if !slices.Equal(scanned, want[:1]) {
		t.Fatalf("Scan up to now visits %v, want %v", scanned, want[:1])
	}
}

// TestOnWriteObservers: every write reaches registered observers in
// registration order, after the point is stored; unsubscribing detaches.
func TestOnWriteObservers(t *testing.T) {
	clk := clock.NewSim()
	db := New(clk, WithGCInterval(0))

	var order []string
	unsubA := db.OnWrite(func(m string, tags Tags, v float64, at time.Time) {
		// The point must already be visible to reads.
		if got := db.Series(m); len(got) == 0 {
			t.Fatal("observer ran before the point was stored")
		}
		order = append(order, fmt.Sprintf("a:%s=%g@%s", m, v, tags["pod"]))
	})
	unsubB := db.OnWrite(func(m string, _ Tags, v float64, _ time.Time) {
		order = append(order, fmt.Sprintf("b:%s=%g", m, v))
	})

	db.WriteNow("m", Tags{"pod": "p1"}, 3)
	want := []string{"a:m=3@p1", "b:m=3"}
	if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("order = %v, want %v", order, want)
	}

	unsubA()
	db.WriteNow("m", Tags{"pod": "p1"}, 4)
	if len(order) != 3 || order[2] != "b:m=4" {
		t.Fatalf("after unsubscribe A: %v", order)
	}
	unsubB()
	unsubB() // double-unsubscribe is a no-op
	db.WriteNow("m", Tags{"pod": "p1"}, 5)
	if len(order) != 3 {
		t.Fatalf("detached observers still notified: %v", order)
	}
}

// TestCanonicalKeyInjective: tag sets that differ must land in different
// series even when a value carries the bytes the key rendering delimits
// with, and a tag set without those bytes must render as it always has
// (series order, Scan order and every recorded stream depend on it).
func TestCanonicalKeyInjective(t *testing.T) {
	if got := string(appendCanonical(nil, Tags{"pod_name": "p", "nodename": "n"})); got != "nodename=n,pod_name=p," {
		t.Fatalf("plain key = %q, want the unescaped rendering", got)
	}
	sets := []Tags{
		{"a": "1,b=2"}, // rendered unescaped, these two were one series
		{"a": "1", "b": "2"},
		{"a": `x\`, "b": "y"}, // a value ending in the escape byte
		{"a": `x\,b=y`},
		{"a": ""}, // an empty value, an empty key, no tags at all
		{"": "a"},
		{},
		{"a": "", "b": ""},
		{"a=": ""},
	}
	clk := clock.NewSim()
	db := New(clk, WithGCInterval(0))
	for i, tags := range sets {
		db.WriteNow("m", tags, float64(i))
	}
	if got := db.SeriesCount(); got != len(sets) {
		t.Fatalf("SeriesCount = %d, want %d distinct series", got, len(sets))
	}
	for _, s := range db.Series("m") {
		if len(s.Points) != 1 {
			t.Fatalf("series %v holds %d points, want 1", s.Tags, len(s.Points))
		}
		want := sets[int(s.Points[0].Value)]
		if len(s.Tags) != len(want) {
			t.Fatalf("series %v stored for tags %v", s.Tags, want)
		}
		for k, v := range want {
			if got, ok := s.Tags[k]; !ok || got != v {
				t.Fatalf("series %v stored for tags %v", s.Tags, want)
			}
		}
	}
}

// TestWriteMoreThanEightTags: past the keys that sort on the stack the
// rendering is the same, whatever order the writer's map yields them in.
func TestWriteMoreThanEightTags(t *testing.T) {
	clk := clock.NewSim()
	db := New(clk, WithGCInterval(0))
	want := ""
	for round := 0; round < 4; round++ {
		tags := Tags{}
		for i := 0; i < 12; i++ {
			tags[fmt.Sprintf("k%02d", (i*5+round)%12)] = "v"
		}
		db.WriteNow("m", tags, float64(round))
	}
	for i := 0; i < 12; i++ {
		want += fmt.Sprintf("k%02d=v,", i)
	}
	s := db.Series("m")
	if len(s) != 1 || len(s[0].Points) != 4 || len(s[0].Tags) != 12 {
		t.Fatalf("series = %+v, want one 12-tag series with 4 points", s)
	}
	if got := string(appendCanonical(nil, s[0].Tags)); got != want {
		t.Fatalf("key = %q, want %q", got, want)
	}
}

// TestWriterMayReuseItsMap: Write keeps nothing of the writer's map.
// Refilling or mutating it afterwards changes neither the stored series,
// nor Series(), nor the tag set a later observer call or Scan receives —
// that is always the series' own.
func TestWriterMayReuseItsMap(t *testing.T) {
	clk := clock.NewSim()
	db := New(clk, WithGCInterval(0))
	var seen []Tags
	db.OnWrite(func(_ string, tags Tags, _ float64, _ time.Time) { seen = append(seen, tags) })

	scratch := Tags{"pod": "p1"}
	db.WriteNow("m", scratch, 1)
	scratch["pod"] = "p2" // refill for the next series
	db.WriteNow("m", scratch, 2)
	scratch["pod"], scratch["extra"] = "p1", "x"
	delete(scratch, "extra")
	db.WriteNow("m", scratch, 3) // p1 again, through the reused map
	clear(scratch)
	scratch["junk"] = "j"

	if got := db.SeriesCount(); got != 2 {
		t.Fatalf("SeriesCount = %d, want 2", got)
	}
	series := db.Series("m")
	if len(series) != 2 || series[0].Tags["pod"] != "p1" || len(series[0].Tags) != 1 || len(series[0].Points) != 2 ||
		series[1].Tags["pod"] != "p2" || len(series[1].Tags) != 1 || len(series[1].Points) != 1 {
		t.Fatalf("Series = %+v", series)
	}
	if len(seen) != 3 {
		t.Fatalf("observer saw %d writes, want 3", len(seen))
	}
	for i, want := range []string{"p1", "p2", "p1"} {
		if len(seen[i]) != 1 || seen[i]["pod"] != want {
			t.Fatalf("observer call %d kept tags %v, want pod=%s", i, seen[i], want)
		}
	}
	db.Scan("m", time.Time{}, time.Time{}, func(tags Tags, _ []Point) bool {
		if _, leaked := tags["junk"]; leaked || len(tags) != 1 {
			t.Fatalf("Scan yields tags %v after the writer reused its map", tags)
		}
		return true
	})
}

// TestObserverUnsubscribesItselfMidDelivery: the write in flight still
// reaches everyone it read under the lock, in id order; the next one
// skips the observer that left.
func TestObserverUnsubscribesItselfMidDelivery(t *testing.T) {
	clk := clock.NewSim()
	db := New(clk, WithGCInterval(0))
	var order []string
	db.OnWrite(func(string, Tags, float64, time.Time) { order = append(order, "a") })
	var unsubB func()
	unsubB = db.OnWrite(func(string, Tags, float64, time.Time) {
		order = append(order, "b")
		unsubB()
	})
	db.OnWrite(func(string, Tags, float64, time.Time) { order = append(order, "c") })

	db.WriteNow("m", Tags{"k": "v"}, 1)
	db.WriteNow("m", Tags{"k": "v"}, 2)
	if got := fmt.Sprint(order); got != "[a b c a c]" {
		t.Fatalf("delivery order = %v, want [a b c a c]", got)
	}
}

// TestObserverChurnDuringConcurrentWrites subscribes and unsubscribes
// observers from one goroutine while others write (run it under -race):
// every write delivers in ascending id order to the list it read, and a
// write that starts after an unsubscribe returned never reaches the
// observer that left.
func TestObserverChurnDuringConcurrentWrites(t *testing.T) {
	clk := clock.NewSim()
	db := New(clk, WithGCInterval(0))

	var mu sync.Mutex
	lastID := make(map[float64]int) // per write (values are unique): the last observer id delivered to
	observer := func(id int, live *atomic.Bool) WriteObserver {
		return func(_ string, _ Tags, v float64, _ time.Time) {
			if v < 0 && !live.Load() {
				t.Errorf("observer %d received write %v begun after its unsubscribe returned", id, v)
			}
			mu.Lock()
			defer mu.Unlock()
			if last, ok := lastID[v]; ok && last >= id {
				t.Errorf("write %v reached observer %d after observer %d", v, id, last)
			}
			lastID[v] = id
		}
	}
	var always atomic.Bool
	always.Store(true)
	db.OnWrite(observer(0, &always))

	const writers, perWriter = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tags := Tags{"writer": fmt.Sprint(w)}
			for i := 0; i < perWriter; i++ {
				db.WriteNow("m", tags, float64(w*perWriter+i+1))
			}
		}()
	}
	for id := 1; id <= 200; id++ {
		var live atomic.Bool
		live.Store(true)
		unsub := db.OnWrite(observer(id, &live))
		db.WriteNow("m", Tags{"writer": "churn"}, -float64(2*id)) // negative: the churner's own writes
		unsub()
		live.Store(false)
		db.WriteNow("m", Tags{"writer": "churn"}, -float64(2*id+1))
	}
	wg.Wait()
	if got, want := len(lastID), writers*perWriter+400; got != want {
		t.Fatalf("%d distinct writes delivered, want %d", got, want)
	}
}

var (
	sinkKey  string
	sinkTags Tags
)

// TestSeriesCreatedAfterSweepAllocatesKeyAndTagsOnly: the series of a pod
// that has come and gone is swept, and the next new series takes its entry
// and its grown point slice. Creating it then allocates what identity
// needs and nothing else — its key string and its tag clone — and filling
// it to the size the swept series had allocates nothing. Tag sets are
// never reused: the one a reader kept from a swept series still reads as
// it did after another series took the entry.
func TestSeriesCreatedAfterSweepAllocatesKeyAndTagsOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	clk := clock.NewSim()
	db := New(clk, WithRetention(time.Minute), WithGCInterval(0))
	var kept Tags
	db.OnWrite(func(_ string, tags Tags, _ float64, _ time.Time) {
		if kept == nil && tags["pod_name"] == "churn-a" {
			kept = tags
		}
	})
	live := Tags{"pod_name": "live", "nodename": "n"}
	pods := [2]Tags{{"pod_name": "churn-a", "nodename": "n"}, {"pod_name": "churn-b", "nodename": "n"}}
	// One pod lifetime: the churned series is created, grows over eight
	// scrapes beside a long-lived one, ages out and is swept. Successive
	// lifetimes alternate between two pods.
	lifetimes := 0
	lifetime := func() {
		churn := pods[lifetimes%2]
		lifetimes++
		for i := 0; i < 8; i++ {
			clk.Advance(10 * time.Second)
			db.WriteNow("m", live, 1)
			db.WriteNow("m", churn, 1)
		}
		clk.Advance(2 * time.Minute)
		db.WriteNow("m", live, 1)
		if swept := db.SweepNow(); swept != 1 {
			t.Fatalf("sweep dropped %d series, want the churned one", swept)
		}
	}
	for i := 0; i < 4; i++ {
		lifetime()
	}
	key := []byte("nodename=n,pod_name=churn-a,")
	identity := testing.AllocsPerRun(50, func() { sinkKey, sinkTags = string(key), pods[0].Clone() })
	if got := testing.AllocsPerRun(50, lifetime); got != identity {
		t.Fatalf("a series created after a sweep allocates %v times over its lifetime, want %v (its key and tag clone)", got, identity)
	}
	if len(kept) != 2 || kept["pod_name"] != "churn-a" || kept["nodename"] != "n" {
		t.Fatalf("a tag set kept from a swept series reads %v", kept)
	}
}
