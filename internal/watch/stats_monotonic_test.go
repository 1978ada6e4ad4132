package watch

import (
	"sync"
	"testing"
	"time"
)

// TestWatchSubscriberStatsMonotonicUnderChurn is the regression guard for
// the telemetry gauges built on Stats().PerSubscriber: while publishers
// storm a tiny async ring (forcing lag, resyncs and drops) and
// subscribers churn, every live subscriber keeps a stable ID and its
// cumulative counters — Delivered, Batches, MaxBatch, MaxLag, Resyncs,
// Dropped — never move backwards between consecutive samples. Gauges
// scraped from these values would otherwise glitch downwards mid-storm.
func TestWatchSubscriberStatsMonotonicUnderChurn(t *testing.T) {
	b := New[int64](Options{Mode: Async, Capacity: 8, MaxBatch: 4})
	defer b.Close()

	var mu sync.Mutex
	var unsubs []func()
	subscribe := func() {
		// A deliberately slow consumer without a resync handler (drops)
		// and a fast one with a resync handler (resyncs).
		slow := b.Subscribe("", func([]int64) { time.Sleep(50 * time.Microsecond) }, nil)
		fast := b.Subscribe("", func([]int64) {}, func() int64 { return b.LastRev() })
		mu.Lock()
		unsubs = append(unsubs, slow, fast)
		mu.Unlock()
	}
	for i := 0; i < 3; i++ {
		subscribe()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for rev := int64(1); rev <= 4000; rev++ {
			b.Publish("", 0, setRev)
			b.Flush()
			switch rev {
			case 1000, 2500: // churn mid-storm
				subscribe()
				mu.Lock()
				oldest := unsubs[0]
				unsubs = unsubs[1:]
				mu.Unlock()
				oldest()
			}
		}
	}()

	prev := make(map[int64]SubscriberStats)
	check := func() {
		st := b.Stats()
		seen := make(map[int64]bool, len(st.PerSubscriber))
		for _, ss := range st.PerSubscriber {
			if seen[ss.ID] {
				t.Fatalf("duplicate subscriber ID %d in one Stats snapshot", ss.ID)
			}
			seen[ss.ID] = true
			p, ok := prev[ss.ID]
			if !ok {
				prev[ss.ID] = ss
				continue
			}
			for _, c := range []struct {
				name      string
				prev, cur int64
			}{
				{"Delivered", p.Delivered, ss.Delivered},
				{"Batches", p.Batches, ss.Batches},
				{"MaxBatch", int64(p.MaxBatch), int64(ss.MaxBatch)},
				{"MaxLag", p.MaxLag, ss.MaxLag},
				{"Resyncs", p.Resyncs, ss.Resyncs},
				{"Dropped", p.Dropped, ss.Dropped},
			} {
				if c.cur < c.prev {
					t.Fatalf("subscriber %d: %s went backwards (%d -> %d)", ss.ID, c.name, c.prev, c.cur)
				}
			}
			prev[ss.ID] = ss
		}
	}

	for sampling := true; sampling; {
		select {
		case <-done:
			sampling = false
		default:
			check()
		}
	}
	b.Quiesce()
	check()

	// The storm must actually have exercised the back-pressure paths, or
	// the monotonicity above was vacuous.
	var lagged, recovered bool
	for _, ss := range b.Stats().PerSubscriber {
		if ss.MaxLag > 0 {
			lagged = true
		}
		if ss.Resyncs > 0 || ss.Dropped > 0 {
			recovered = true
		}
	}
	if !lagged || !recovered {
		st := b.Stats()
		t.Fatalf("storm too gentle: no lag or no resync/drop observed (%+v)", st.PerSubscriber)
	}
	mu.Lock()
	for _, u := range unsubs {
		u()
	}
	mu.Unlock()
	if got := len(b.Stats().PerSubscriber); got != 0 {
		t.Fatalf("%d subscribers still reported after unsubscribe", got)
	}
}
