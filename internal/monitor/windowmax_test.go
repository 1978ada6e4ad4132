package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/clock"
	"github.com/sgxorch/sgxorch/internal/tsdb"
)

func wmDB() (*clock.Sim, *tsdb.DB) {
	clk := clock.NewSim()
	return clk, tsdb.New(clk, tsdb.WithGCInterval(0))
}

func wmTags(pod, node string) tsdb.Tags {
	return tsdb.Tags{TagPod: pod, TagNode: node}
}

func TestWindowMaxTracksWrites(t *testing.T) {
	clk, db := wmDB()
	w := NewWindowMax(clk, db, 25*time.Second, MeasurementEPC)
	defer w.Close()

	if _, ok := w.Max(MeasurementEPC, "p", "n"); ok {
		t.Fatal("empty aggregator reported a max")
	}
	db.WriteNow(MeasurementEPC, wmTags("p", "n"), 5)
	clk.Advance(5 * time.Second)
	db.WriteNow(MeasurementEPC, wmTags("p", "n"), 3)
	if v, ok := w.Max(MeasurementEPC, "p", "n"); !ok || v != 5 {
		t.Fatalf("max = %v, %v; want 5", v, ok)
	}
	db.WriteNow(MeasurementEPC, wmTags("p", "n"), 9)
	if v, _ := w.Max(MeasurementEPC, "p", "n"); v != 9 {
		t.Fatalf("max after larger sample = %v, want 9", v)
	}
	// Zero samples mirror Listing 1's value <> 0 filter.
	db.WriteNow(MeasurementEPC, wmTags("z", "n"), 0)
	if _, ok := w.Max(MeasurementEPC, "z", "n"); ok {
		t.Fatal("zero-only series reported a max")
	}
}

// TestWindowMaxDecay: the peak must fall — and eventually disappear —
// purely from the passage of time, with Refresh announcing each step.
func TestWindowMaxDecay(t *testing.T) {
	clk, db := wmDB()
	w := NewWindowMax(clk, db, 25*time.Second, MeasurementEPC)
	defer w.Close()
	var announced []string
	w.SetOnChange(func(_, pod, node string, max float64, ok bool) {
		announced = append(announced, fmt.Sprintf("%s/%s=%v,%v", pod, node, max, ok))
	})

	db.WriteNow(MeasurementEPC, wmTags("p", "n"), 10) // t=0
	clk.Advance(10 * time.Second)
	db.WriteNow(MeasurementEPC, wmTags("p", "n"), 4) // t=10
	announced = nil

	clk.Advance(20 * time.Second) // t=30: the 10 at t=0 is out of [5, 30]
	w.Refresh()
	if v, ok := w.Max(MeasurementEPC, "p", "n"); !ok || v != 4 {
		t.Fatalf("max after peak decay = %v, %v; want 4", v, ok)
	}
	if len(announced) != 1 || announced[0] != "p/n=4,true" {
		t.Fatalf("decay announcements = %v", announced)
	}

	clk.Advance(time.Minute) // everything out of window
	w.Refresh()
	if _, ok := w.Max(MeasurementEPC, "p", "n"); ok {
		t.Fatal("fully decayed series still reports a max")
	}
	if len(announced) != 2 || announced[1] != "p/n=0,false" {
		t.Fatalf("final announcements = %v", announced)
	}
	if w.SeriesCount() != 0 {
		t.Fatalf("series not reclaimed: %d", w.SeriesCount())
	}
}

// TestWindowMaxMaxIsCurrentWithoutRefresh: Max must skip expired entries
// even before Refresh evicts them.
func TestWindowMaxMaxIsCurrentWithoutRefresh(t *testing.T) {
	clk, db := wmDB()
	w := NewWindowMax(clk, db, 25*time.Second, MeasurementEPC)
	defer w.Close()
	db.WriteNow(MeasurementEPC, wmTags("p", "n"), 10)
	clk.Advance(10 * time.Second)
	db.WriteNow(MeasurementEPC, wmTags("p", "n"), 4)
	clk.Advance(20 * time.Second)
	if v, ok := w.Max(MeasurementEPC, "p", "n"); !ok || v != 4 {
		t.Fatalf("max without refresh = %v, %v; want 4", v, ok)
	}
}

func TestWindowMaxBackfill(t *testing.T) {
	clk, db := wmDB()
	db.WriteNow(MeasurementEPC, wmTags("p", "n"), 7)
	clk.Advance(10 * time.Second)
	db.WriteNow(MeasurementEPC, wmTags("p", "n"), 2)
	db.WriteNow(MeasurementMemory, wmTags("p", "n"), 11)
	clk.Advance(40 * time.Second)
	db.WriteNow(MeasurementEPC, wmTags("q", "n"), 3)

	// Created after the writes: the 7 and 11 have aged out of the window
	// by now, the 3 has not.
	w := NewWindowMax(clk, db, 25*time.Second, MeasurementEPC, MeasurementMemory)
	defer w.Close()
	if _, ok := w.Max(MeasurementEPC, "p", "n"); ok {
		t.Fatal("expired backfill point visible")
	}
	if _, ok := w.Max(MeasurementMemory, "p", "n"); ok {
		t.Fatal("expired memory backfill point visible")
	}
	if v, ok := w.Max(MeasurementEPC, "q", "n"); !ok || v != 3 {
		t.Fatalf("backfilled max = %v, %v; want 3", v, ok)
	}
}

// TestWindowMaxChangeAnnouncements: the callback fires exactly on
// observable max transitions from the write path.
func TestWindowMaxChangeAnnouncements(t *testing.T) {
	clk, db := wmDB()
	w := NewWindowMax(clk, db, 25*time.Second, MeasurementEPC)
	defer w.Close()
	fired := 0
	w.SetOnChange(func(_, _, _ string, _ float64, _ bool) { fired++ })

	db.WriteNow(MeasurementEPC, wmTags("p", "n"), 5) // new series: change
	if fired != 1 {
		t.Fatalf("fired = %d after first sample", fired)
	}
	clk.Advance(time.Second)
	db.WriteNow(MeasurementEPC, wmTags("p", "n"), 3) // dominated: no change
	if fired != 1 {
		t.Fatalf("fired = %d after dominated sample", fired)
	}
	clk.Advance(time.Second)
	db.WriteNow(MeasurementEPC, wmTags("p", "n"), 8) // new peak: change
	if fired != 2 {
		t.Fatalf("fired = %d after new peak", fired)
	}
	db.WriteNow("unrelated/metric", wmTags("p", "n"), 99) // untracked measurement
	if fired != 2 {
		t.Fatalf("fired = %d after untracked measurement", fired)
	}
}

// TestWindowMaxAnnouncesValueChangesOnly: a later sample equal to the
// peak takes over the deque's front (and its expiry) but leaves the
// observable max where it was, so it is not announced; every sample that
// moves the peak's value is, and so is the peak's expiry.
func TestWindowMaxAnnouncesValueChangesOnly(t *testing.T) {
	clk, db := wmDB()
	w := NewWindowMax(clk, db, 25*time.Second, MeasurementEPC)
	defer w.Close()
	var announced []float64
	w.SetOnChange(func(_, _, _ string, max float64, _ bool) { announced = append(announced, max) })

	for i := 0; i < 5; i++ { // an unchanged peak: announced once
		db.WriteNow(MeasurementEPC, wmTags("p", "n"), 5)
		clk.Advance(10 * time.Second)
	}
	for _, v := range []float64{6, 7, 8, 9} { // a changed one: every time
		db.WriteNow(MeasurementEPC, wmTags("p", "n"), v)
		clk.Advance(time.Second)
	}
	if want := []float64{5, 6, 7, 8, 9}; !reflect.DeepEqual(announced, want) {
		t.Fatalf("announced %v, want %v", announced, want)
	}
	// The last equal sample's expiry was registered: with no writes, the
	// peak still falls once the window has passed it.
	clk.Advance(30 * time.Second)
	w.Refresh()
	if _, ok := w.Max(MeasurementEPC, "p", "n"); ok || len(announced) != 6 {
		t.Fatalf("after the window passed: announced %v, series still live = %v", announced, ok)
	}

	// A peak that expired with no Refresh to announce it: Max already
	// reads it gone, so an equal sample that brings it back is announced.
	db.WriteNow(MeasurementEPC, wmTags("q", "n"), 4)
	clk.Advance(30 * time.Second)
	if _, ok := w.Max(MeasurementEPC, "q", "n"); ok {
		t.Fatal("an expired peak is still read")
	}
	db.WriteNow(MeasurementEPC, wmTags("q", "n"), 4)
	if want := []float64{5, 6, 7, 8, 9, 0, 4, 4}; !reflect.DeepEqual(announced, want) {
		t.Fatalf("announced %v, want %v", announced, want)
	}
}

// TestWindowMaxRefreshConcurrent: Refreshes on several goroutines hand
// the kept transition buffer between them while the clock advances and
// samples arrive on another; with -race this checks the handover, and
// afterwards every series' peak is the scan reference's.
func TestWindowMaxRefreshConcurrent(t *testing.T) {
	clk, db := wmDB()
	w := NewWindowMax(clk, db, 25*time.Second, MeasurementEPC)
	defer w.Close()
	var mu sync.Mutex
	announced := 0
	w.SetOnChange(func(_, pod, node string, _ float64, _ bool) {
		w.Max(MeasurementEPC, pod, node) // what the scheduler's cache does
		mu.Lock()
		announced++
		mu.Unlock()
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					w.Refresh()
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		clk.Advance(time.Duration(1+rng.Intn(5)) * time.Second)
		db.WriteNow(MeasurementEPC, wmTags(fmt.Sprintf("p%d", rng.Intn(8)), "n"), float64(1+rng.Intn(10)))
	}
	close(stop)
	wg.Wait()
	w.Refresh()

	want := WindowPeak(db, MeasurementEPC, 25*time.Second)
	for k, v := range want {
		if got, ok := w.Max(MeasurementEPC, k.Pod, k.Node); !ok || got != v {
			t.Errorf("%s/%s: max = %v, %v; the scan reads %v", k.Pod, k.Node, got, ok, v)
		}
	}
	if got := w.SeriesCount(); got != len(want) {
		t.Errorf("%d live series, the scan finds %d", got, len(want))
	}
	if announced == 0 {
		t.Fatal("nothing was announced")
	}
}

// TestWindowMaxMatchesScanReference drives randomized in- and out-of-order
// writes, zeros, and clock advances through the aggregator and requires
// its view to match WindowPeak — the same inner-Listing-1 peak computed
// from scratch through the tsdb scan — at every checkpoint.
func TestWindowMaxMatchesScanReference(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		clk, db := wmDB()
		window := time.Duration(5+rng.Intn(56)) * time.Second
		w := NewWindowMax(clk, db, window, MeasurementEPC)
		w.SetOnChange(func(string, string, string, float64, bool) {})

		type key struct{ pod, node string }
		seen := make(map[key]bool)
		for op := 0; op < 120; op++ {
			if rng.Intn(4) == 0 {
				clk.Advance(time.Duration(rng.Intn(20000)) * time.Millisecond)
			}
			k := key{
				pod:  fmt.Sprintf("p%d", rng.Intn(5)),
				node: fmt.Sprintf("n%d", rng.Intn(3)),
			}
			seen[k] = true
			v := float64(rng.Intn(8)) // zeros included
			at := clk.Now().Add(-time.Duration(rng.Intn(90)) * time.Second)
			db.Write(MeasurementEPC, wmTags(k.pod, k.node), v, at)

			if op%10 == 0 {
				w.Refresh()
				want := WindowPeak(db, MeasurementEPC, window)
				for k := range seen {
					wantV, wantOK := want[PodNode{Pod: k.pod, Node: k.node}]
					gotV, gotOK := w.Max(MeasurementEPC, k.pod, k.node)
					if gotOK != wantOK || (wantOK && gotV != wantV) {
						t.Fatalf("trial %d op %d series %v: max = %v,%v; scan reference = %v,%v",
							trial, op, k, gotV, gotOK, wantV, wantOK)
					}
				}
			}
		}
		w.Close()
	}
}

// TestWindowMaxCloseDetaches: writes after Close must not reach the
// aggregator.
func TestWindowMaxCloseDetaches(t *testing.T) {
	clk, db := wmDB()
	w := NewWindowMax(clk, db, 25*time.Second, MeasurementEPC)
	w.Close()
	db.WriteNow(MeasurementEPC, wmTags("p", "n"), 5)
	if _, ok := w.Max(MeasurementEPC, "p", "n"); ok {
		t.Fatal("closed aggregator observed a write")
	}
}

// TestWindowMaxSimultaneousExpiryOrder pins the order Refresh announces
// fronts that expire at one instant. The expiry heap is not stable, so
// the order is whatever its sift rules make it — and it is part of every
// recorded run, because the callbacks feed the scheduler's cache: a heap
// that sifts differently from container/heap fails here before it moves
// a sim_digest.
func TestWindowMaxSimultaneousExpiryOrder(t *testing.T) {
	clk, db := wmDB()
	const window = 25 * time.Second
	w := NewWindowMax(clk, db, window, MeasurementEPC)
	defer w.Close()
	var announced []string
	w.SetOnChange(func(_, pod, _ string, max float64, ok bool) {
		announced = append(announced, fmt.Sprintf("%s=%v,%v", pod, max, ok))
	})
	refresh := func() string {
		announced = announced[:0]
		w.Refresh()
		return fmt.Sprint(announced)
	}

	// Nine series sampled at one instant; a second later three of them
	// peak higher (their first entries go stale in place) and all get a
	// smaller sample that will outlive the first.
	for i := 0; i < 9; i++ {
		db.WriteNow(MeasurementEPC, wmTags(fmt.Sprintf("p%d", i), "n"), float64(10+i))
	}
	clk.Advance(time.Second)
	for _, i := range []int{4, 0, 7} {
		db.WriteNow(MeasurementEPC, wmTags(fmt.Sprintf("p%d", i), "n"), float64(30+i))
	}
	clk.Advance(time.Second)
	for i := 8; i >= 0; i-- {
		db.WriteNow(MeasurementEPC, wmTags(fmt.Sprintf("p%d", i), "n"), float64(1+i))
	}

	clk.Advance(window - 2*time.Second + time.Millisecond) // the six untouched first samples expire together
	if got, want := refresh(), "[p1=2,true p3=4,true p8=9,true p2=3,true p5=6,true p6=7,true]"; got != want {
		t.Fatalf("first expiry announced %s, want %s", got, want)
	}
	clk.Advance(time.Second) // the three later peaks
	if got, want := refresh(), "[p7=8,true p0=1,true p4=5,true]"; got != want {
		t.Fatalf("second expiry announced %s, want %s", got, want)
	}
	clk.Advance(time.Second) // every series' last sample, all nine at once
	if got, want := refresh(), "[p0=0,false p4=0,false p1=0,false p3=0,false p8=0,false p6=0,false p5=0,false p2=0,false p7=0,false]"; got != want {
		t.Fatalf("final expiry announced %s, want %s", got, want)
	}
	if n := w.SeriesCount(); n != 0 {
		t.Fatalf("%d series left after every sample expired", n)
	}
}

// TestWindowMaxSeriesRecreatedAfterDrop: Refresh drops a series while
// expiry entries of it are still queued behind the one that emptied it;
// a series created afterwards under the same key is a new incarnation
// those entries must not touch.
func TestWindowMaxSeriesRecreatedAfterDrop(t *testing.T) {
	clk, db := wmDB()
	const window = 25 * time.Second
	w := NewWindowMax(clk, db, window, MeasurementEPC)
	defer w.Close()
	var announced []string
	w.SetOnChange(func(_, pod, _ string, max float64, ok bool) {
		announced = append(announced, fmt.Sprintf("%s=%v,%v", pod, max, ok))
	})
	t0 := clk.Now()
	clk.Advance(10 * time.Second)
	db.Write(MeasurementEPC, wmTags("p", "n"), 3, t0.Add(5*time.Second))
	// Out of order and larger: it becomes the front, so the entry that
	// empties the series (due t0+2s+window) sorts before the first one
	// (due t0+5s+window), which is popped after the series is gone.
	db.Write(MeasurementEPC, wmTags("p", "n"), 9, t0.Add(2*time.Second))
	db.WriteNow(MeasurementEPC, wmTags("q", "n"), 1) // a bystander due later than both

	clk.Advance(window) // now = t0+35s: both of p's samples are out, q's is not
	w.Refresh()
	if _, ok := w.Max(MeasurementEPC, "p", "n"); ok || w.SeriesCount() != 1 {
		t.Fatalf("p survived its expiry: %v", announced)
	}
	db.WriteNow(MeasurementEPC, wmTags("p", "n"), 4) // the same key, a new series
	clk.Advance(time.Second)
	w.Refresh() // q expires; nothing of the old p may fire
	if v, ok := w.Max(MeasurementEPC, "p", "n"); !ok || v != 4 {
		t.Fatalf("re-created p reads %v, %v; want 4", v, ok)
	}
	clk.Advance(window)
	w.Refresh()
	want := "[p=3,true p=9,true q=1,true p=0,false p=4,true q=0,false p=0,false]"
	if got := fmt.Sprint(announced); got != want {
		t.Fatalf("announced %s, want %s", got, want)
	}
	if n := w.SeriesCount(); n != 0 {
		t.Fatalf("%d series left", n)
	}
}

// TestPointsAreSixteenPointerFreeBytes: a stored tsdb point and a deque
// entry are each an int64 instant and a float64 value. A time.Time field
// would double either and give the garbage collector every series'
// storage to scan again.
func TestPointsAreSixteenPointerFreeBytes(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeFor[tsdb.Point](), reflect.TypeFor[wmPoint]()} {
		if typ.Size() != 16 {
			t.Errorf("%v is %d bytes, want 16", typ, typ.Size())
		}
		for i := range typ.NumField() {
			if f := typ.Field(i); f.Type.Kind() != reflect.Int64 && f.Type.Kind() != reflect.Float64 {
				t.Errorf("%v.%s is a %v, want int64 or float64", typ, f.Name, f.Type)
			}
		}
	}
}

// TestWindowMaxOutOfRangeInstants: a sample stamped before 1678 has
// expired on arrival, and one stamped after 2262 never expires, however
// far the clock runs; neither wraps around the int64 range.
func TestWindowMaxOutOfRangeInstants(t *testing.T) {
	clk, db := wmDB()
	w := NewWindowMax(clk, db, 25*time.Second, MeasurementEPC)
	defer w.Close()
	db.Write(MeasurementEPC, wmTags("old", "n"), 7, time.Time{})
	db.Write(MeasurementEPC, wmTags("far", "n"), 9, time.Date(2300, time.January, 1, 0, 0, 0, 0, time.UTC))
	if _, ok := w.Max(MeasurementEPC, "old", "n"); ok {
		t.Fatal("a sample at the zero time entered the window")
	}
	clk.Advance(time.Hour)
	w.Refresh()
	if v, ok := w.Max(MeasurementEPC, "far", "n"); !ok || v != 9 {
		t.Fatalf("max of the year-2300 sample an hour on = %v, %v; want 9", v, ok)
	}
}
