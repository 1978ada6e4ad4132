package tsdb

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/sgxorch/sgxorch/internal/clock"
)

// bufferAccount checks the recycling invariants on db, whose lock the
// caller must not hold, and returns the live series' point capacity and
// the spares'. Every spare buffer has its class's capacity, the spares
// hold no more capacity than the live series, and no two buffers — live,
// free-listed or spare — share a backing array.
func bufferAccount(t *testing.T, db *DB) (live, spare int) {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	owner := map[*Point]string{}
	own := func(pts []Point, who string) {
		if cap(pts) == 0 {
			return
		}
		base := &pts[:cap(pts)][0]
		if other, ok := owner[base]; ok {
			t.Fatalf("%s and %s share a point buffer", other, who)
		}
		owner[base] = who
	}
	for name, m := range db.measurements {
		for _, e := range m.entries {
			own(e.points, name+" "+e.key)
			live += cap(e.points)
		}
	}
	for i, e := range db.free {
		own(e.points, fmt.Sprintf("free entry %d", i))
	}
	for c, list := range db.spare {
		for i, pts := range list {
			if cap(pts) != 1<<c || len(pts) != 0 {
				t.Fatalf("spare %d of class %d has len %d, cap %d", i, c, len(pts), cap(pts))
			}
			own(pts, fmt.Sprintf("spare %d of class %d", i, c))
			spare += cap(pts)
		}
	}
	if spare > live {
		t.Fatalf("spares hold %d points of capacity, live series %d", spare, live)
	}
	return live, spare
}

// TestCirculatingBuffersNeverShared drives series through several
// capacity classes — long-lived ones past 64 points, pods that come, grow
// and die — with sweeps in between, so buffers move between series through
// the spare lists and the free list. After every write and every sweep no
// two series share a buffer and the spares stay within the live capacity;
// every Scan and Series read equals the naive reference FuzzWriteScan
// uses. Once every series has been swept, no spare is left.
func TestCirculatingBuffersNeverShared(t *testing.T) {
	clk := clock.NewSim()
	db := New(clk, WithRetention(fuzzRetention), WithGCInterval(0))
	ref := &fuzzRef{}
	rng := rand.New(rand.NewPCG(55, 1))

	type series struct {
		m     string
		tags  Tags
		rate  int // writes per step
		until int // the last step it is written at
	}
	var all []*series
	for i, rate := range []int{4, 7} { // 80 and 140 points in retention: classes 128 and 256
		all = append(all, &series{m: fuzzMeasurements[i%2], tags: Tags{"pod_name": fmt.Sprintf("long-%d", i)}, rate: rate, until: 1 << 30})
	}
	spareSeen, value := 0, 0.0
	write := func(s *series, at time.Time) {
		value++
		db.Write(s.m, s.tags, value, at)
		ref.write(s.m, s.tags, value, at)
		_, spare := bufferAccount(t, db)
		spareSeen = max(spareSeen, spare)
	}
	check := func(step int) {
		now := clk.Now()
		cutoff := now.Add(-fuzzRetention)
		for _, m := range fuzzMeasurements {
			for b := byte(0); b < 64; b += 9 {
				from, to := fuzzBound(b, now, now.Add(-time.Second)), fuzzBound(b>>3, now, now.Add(-time.Second))
				var got []SeriesData
				db.Scan(m, from, to, func(tags Tags, pts []Point) bool {
					got = append(got, SeriesData{Tags: tags, Points: slices.Clone(pts)})
					return true
				})
				if want := ref.scan(m, from, to, cutoff); !sameSeries(got, want) {
					t.Fatalf("step %d: Scan(%q, %v, %v) visits %+v, want %+v", step, m, from, to, got, want)
				}
			}
			if got, want := db.Series(m), ref.scan(m, time.Time{}, time.Time{}, cutoff); !sameSeries(got, want) {
				t.Fatalf("step %d: Series(%q) = %+v, want %+v", step, m, got, want)
			}
		}
	}
	const steps = 240
	for step := 0; step < steps; step++ {
		if step%5 == 0 && step < steps-40 { // a pod starts: 1 to 12 writes a step for 3 to 30 steps
			all = append(all, &series{
				m:     fuzzMeasurements[rng.IntN(2)],
				tags:  Tags{"pod_name": fmt.Sprintf("pod-%d", step), "nodename": "n"},
				rate:  1 + rng.IntN(12),
				until: step + 3 + rng.IntN(28),
			})
		}
		clk.Advance(time.Second)
		now := clk.Now()
		for _, s := range all {
			if step > s.until {
				continue
			}
			for k := 0; k < s.rate; k++ {
				at := now
				if rng.IntN(8) == 0 { // out of order, inside retention
					at = now.Add(-time.Duration(1+rng.IntN(15)) * time.Second)
				}
				write(s, at)
			}
		}
		if step%7 == 0 {
			if got, want := db.SweepNow(), ref.sweep(now.Add(-fuzzRetention)); got != want {
				t.Fatalf("step %d: SweepNow dropped %d series, want %d", step, got, want)
			}
			bufferAccount(t, db)
		}
		if step%3 == 0 {
			check(step)
		}
	}
	if spareSeen < 64 {
		t.Fatalf("the spares never held more than %d points of capacity: no buffer circulated", spareSeen)
	}
	clk.Advance(2 * fuzzRetention)
	if got, want := db.SweepNow(), ref.sweep(clk.Now().Add(-fuzzRetention)); got != want || db.SeriesCount() != 0 {
		t.Fatalf("the last sweep dropped %d series, want %d; %d left", got, want, db.SeriesCount())
	}
	if live, spare := bufferAccount(t, db); live != 0 || spare != 0 || len(db.free) != 0 {
		t.Fatalf("with every series swept: live capacity %d, spare %d, %d free entries; want none", live, spare, len(db.free))
	}
}

// TestSweepTrimsSparesToLiveCapacity: a sweep that leaves little alive
// drops spares, largest class first, until their capacity is at most the
// live series'; the small classes new series grow through stay.
func TestSweepTrimsSparesToLiveCapacity(t *testing.T) {
	clk := clock.NewSim()
	db := New(clk, WithRetention(time.Minute), WithGCInterval(0))
	small, big := Tags{"pod_name": "small"}, Tags{"pod_name": "big"}
	for i := 0; i < 200; i++ { // big: 1, 2, …, 128 left behind, 256 held
		db.WriteNow("m", big, 1)
	}
	for i := 0; i < 9; i++ { // small: takes 1 … 16 back, leaves 1 … 8
		db.WriteNow("m", small, 1)
	}
	if _, spare := bufferAccount(t, db); spare != 1+2+4+8+32+64+128 {
		t.Fatalf("spare capacity %d after the growth, want 239", spare)
	}
	clk.Advance(50 * time.Second)
	db.WriteNow("n", small, 1) // another measurement's series: 1 point of capacity, taken from the spares
	clk.Advance(30 * time.Second)
	db.WriteNow("m", small, 1) // small lives on, big ages out
	if swept := db.SweepNow(); swept != 1 {
		t.Fatalf("sweep dropped %d series, want big", swept)
	}
	// Live: small's 16 and n's 1. Big's entry is the free one (m keeps a
	// series), its 256 kept with it; of the spares 2 … 128, the largest go
	// until what is left fits in 17.
	live, spare := bufferAccount(t, db)
	if live != 17 || spare != 2+4+8 || len(db.free) != 1 || cap(db.free[0].points) != 256 {
		t.Fatalf("after the sweep: live %d, spare %d, %d free entries; want 17, 14 and big's", live, spare, len(db.free))
	}
}

// TestGrowthThroughLeftClassesAllocatesNoPoints: the buffers a series
// leaves behind as it grows, and those of a swept series the free list has
// no room for, serve the next series that grows through the same classes.
// Each lifetime here creates two series beside a long-lived one, fills
// each to 64 points and lets the sweep drop both: one entry goes to the
// free list with its buffer, the other's buffer to the spares. Of the two
// series the next lifetime creates, one takes the free entry; the other
// takes a fresh entry and grows from nothing through 1, 2, …, 64, every
// buffer a spare. So a lifetime allocates the two keys and tag clones and
// nothing for points; buffers allocated by append would show as 7 more.
func TestGrowthThroughLeftClassesAllocatesNoPoints(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	clk := clock.NewSim()
	db := New(clk, WithRetention(time.Minute), WithGCInterval(0))
	live := Tags{"pod_name": "live", "nodename": "n"}
	for i := 0; i < 100; i++ { // 128 points of capacity: room for every spare below
		db.WriteNow("m", live, 1)
	}
	pods := [2]Tags{{"pod_name": "churn-a", "nodename": "n"}, {"pod_name": "churn-b", "nodename": "n"}}
	lifetime := func() {
		clk.Advance(time.Second)
		for _, p := range pods {
			for i := 0; i < 64; i++ {
				db.WriteNow("m", p, 1)
			}
		}
		clk.Advance(2 * time.Minute)
		db.WriteNow("m", live, 1)
		if swept := db.SweepNow(); swept != 2 {
			t.Fatalf("sweep dropped %d series, want both churned ones", swept)
		}
	}
	for i := 0; i < 4; i++ {
		lifetime()
	}
	keys := [2][]byte{[]byte("nodename=n,pod_name=churn-a,"), []byte("nodename=n,pod_name=churn-b,")}
	identity := testing.AllocsPerRun(50, func() {
		sinkKey, sinkTags = string(keys[0]), pods[0].Clone()
		sinkKey, sinkTags = string(keys[1]), pods[1].Clone()
	})
	if got := testing.AllocsPerRun(50, lifetime); got != identity {
		t.Fatalf("a lifetime of two 64-point series allocates %v times, want %v (their keys and tag clones)", got, identity)
	}
	if _, spare := bufferAccount(t, db); spare != 1+2+4+8+16+32+64 {
		t.Fatalf("spare capacity %d after the last sweep, want the 127 the next fresh series grows through", spare)
	}
}

// TestConcurrentChurnKeepsSeriesApart runs writers on disjoint churning
// series — each writer starts a new series every few dozen points, of
// lengths that cross several capacity classes — beside a goroutine that
// advances the clock and sweeps, and scanners. Buffers circulate between
// the writers' series the whole time, yet every point a scan or a Series
// copy shows carries the value of the writer and generation its series'
// tags name, in time order. Run it under -race.
func TestConcurrentChurnKeepsSeriesApart(t *testing.T) {
	clk := clock.NewSim()
	db := New(clk, WithRetention(2*time.Second), WithGCInterval(0))
	const writers, gens = 4, 40
	// A value is writer·1e6 + generation·1e3 + sequence: it names its
	// series.
	owner := func(v float64) string {
		return fmt.Sprintf("%d/%d", int(v)/1e6, int(v)%1e6/1e3)
	}
	verify := func(tags Tags, pts []Point) {
		want := tags["writer"] + "/" + tags["gen"]
		for i, p := range pts {
			if got := owner(p.Value); got != want {
				t.Errorf("series %s holds a point of series %s", want, got)
				return
			}
			if i > 0 && p.Nanos < pts[i-1].Nanos {
				t.Errorf("series %s is out of time order", want)
				return
			}
		}
	}
	var wg, bg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tags := Tags{"writer": fmt.Sprint(w)}
			for g := 0; g < gens; g++ {
				tags["gen"] = fmt.Sprint(g) // a writer may refill its map
				n := 1 + (w*37+g*53)%150
				for i := 0; i < n; i++ {
					db.WriteNow("m", tags, float64(w*1e6+g*1e3+i))
				}
			}
		}()
	}
	bg.Add(2)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			clk.Advance(100 * time.Millisecond)
			db.SweepNow()
		}
	}()
	go func() {
		defer bg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			db.Scan("m", time.Time{}, time.Time{}, func(tags Tags, pts []Point) bool {
				verify(tags, pts)
				return true
			})
			for _, s := range db.Series("m") {
				verify(s.Tags, s.Points)
			}
		}
	}()
	wg.Wait()
	close(done)
	bg.Wait()
	db.Scan("m", time.Time{}, time.Time{}, func(tags Tags, pts []Point) bool {
		verify(tags, pts)
		return true
	})
	bufferAccount(t, db)
}
