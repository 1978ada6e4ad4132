package watch

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// setRev is the int64 events' stamp: an event's value is its rev.
func setRev(ev *int64, rev int64) { *ev = rev }

// intBroker publishes ints whose value is the rev the broker drew — the
// simplest model of the apiserver's versioned event stream.
func intBroker(opts Options) (*Broker[int64], func() int64) {
	b := New[int64](opts)
	return b, func() int64 { return b.Publish("", 0, setRev) }
}

// checkOrdered fails unless revs are strictly increasing (no duplicate,
// no reordering).
func checkOrdered(t *testing.T, revs []int64, context string) {
	t.Helper()
	for i := 1; i < len(revs); i++ {
		if revs[i] <= revs[i-1] {
			t.Fatalf("%s: rev %d delivered after %d (dup or out of order)", context, revs[i], revs[i-1])
		}
	}
}

func TestSyncDeliveryInOrder(t *testing.T) {
	b, publish := intBroker(Options{Mode: Sync})
	var got1, got2 []int64
	unsub1 := b.Subscribe("", func(evs []int64) { got1 = append(got1, evs...) }, nil)
	defer unsub1()
	unsub2 := b.Subscribe("", func(evs []int64) { got2 = append(got2, evs...) }, nil)
	defer unsub2()
	for i := 0; i < 50; i++ {
		publish()
		b.Flush()
	}
	for _, got := range [][]int64{got1, got2} {
		if len(got) != 50 {
			t.Fatalf("delivered %d events, want 50", len(got))
		}
		checkOrdered(t, got, "sync")
	}
	st := b.Stats()
	if st.Published != 50 || st.Subscribers != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubscribeMidStreamSkipsOldEvents(t *testing.T) {
	b, publish := intBroker(Options{Mode: Sync})
	var last int64
	for i := 0; i < 10; i++ {
		last = publish()
	}
	b.Flush()
	if last != 10 {
		t.Fatalf("tenth publish drew rev %d, want 10", last)
	}
	var got []int64
	unsub := b.Subscribe("", func(evs []int64) { got = append(got, evs...) }, nil)
	defer unsub()
	publish()
	publish()
	b.Flush()
	if len(got) != 2 || got[0] != 11 || got[1] != 12 {
		t.Fatalf("mid-stream subscriber got %v, want [11 12]", got)
	}
}

// TestSyncReentrantPublish: a callback that synchronously mutates the
// source (publish + flush from inside delivery) must not deadlock; the
// outer flusher delivers the event it produced, still in order.
func TestSyncReentrantPublish(t *testing.T) {
	b, publish := intBroker(Options{Mode: Sync})
	var got []int64
	unsub := b.Subscribe("", func(evs []int64) {
		for _, ev := range evs {
			got = append(got, ev)
			if ev == 1 {
				publish() // re-entrant mutation
				b.Flush() // must return immediately, not self-deadlock
			}
		}
	}, nil)
	defer unsub()
	publish()
	b.Flush()
	if len(got) != 2 {
		t.Fatalf("got %v, want the re-entrantly published event delivered too", got)
	}
	checkOrdered(t, got, "reentrant")
}

func TestUnsubscribeFromInsideCallbackSync(t *testing.T) {
	b, publish := intBroker(Options{Mode: Sync})
	var got []int64
	var unsub func()
	unsub = b.Subscribe("", func(evs []int64) {
		got = append(got, evs...)
		unsub() // must not deadlock; no further deliveries
	}, nil)
	publish()
	b.Flush()
	publish()
	b.Flush()
	if len(got) != 1 {
		t.Fatalf("got %d events after in-callback unsubscribe, want 1", len(got))
	}
	unsub() // second call is a no-op
}

func TestUnsubscribeFromInsideCallbackAsync(t *testing.T) {
	b, publish := intBroker(Options{Mode: Async, MaxBatch: 1})
	delivered := make(chan int64, 16)
	var unsub func()
	unsub = b.Subscribe("", func(evs []int64) {
		delivered <- evs[0]
		unsub()
	}, nil)
	publish()
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("first event never delivered")
	}
	publish()
	b.Quiesce() // closed subscription no longer counts
	select {
	case ev := <-delivered:
		t.Fatalf("event %d delivered after in-callback unsubscribe", ev)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestUnsubscribeWaitsForInflightDelivery: an external unsubscribe must
// not return while the subscriber's callback is still running — after
// it returns, no callback is in flight and none will start.
func TestUnsubscribeWaitsForInflightDelivery(t *testing.T) {
	b, publish := intBroker(Options{Mode: Async})
	entered := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	inCallback := false
	unsub := b.Subscribe("", func(evs []int64) {
		mu.Lock()
		inCallback = true
		mu.Unlock()
		entered <- struct{}{}
		<-release
		mu.Lock()
		inCallback = false
		mu.Unlock()
	}, nil)
	publish()
	<-entered

	done := make(chan struct{})
	go func() {
		unsub()
		mu.Lock()
		defer mu.Unlock()
		if inCallback {
			t.Error("unsubscribe returned while the callback was still running")
		}
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("unsubscribe returned before the in-flight callback finished")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("unsubscribe never returned")
	}
}

// TestUnsubscribeConcurrentWithDeliveryHammer races publishers,
// deliveries and unsubscribes; run under -race this is the regression
// test for the unsubscribe-during-delivery surface.
func TestUnsubscribeConcurrentWithDeliveryHammer(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		b, publish := intBroker(Options{Mode: Async, Capacity: 64, MaxBatch: 4})
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					publish()
				}
			}
		}()
		var unsubs []func()
		for i := 0; i < 8; i++ {
			var n int64
			unsubs = append(unsubs, b.Subscribe("", func(evs []int64) { n += int64(len(evs)) }, func() int64 { return b.LastRev() }))
		}
		var uw sync.WaitGroup
		for _, u := range unsubs {
			u := u
			uw.Add(1)
			go func() { defer uw.Done(); u() }()
		}
		uw.Wait()
		close(stop)
		wg.Wait()
		b.Close()
	}
}

func TestAsyncDeliversEverythingBatched(t *testing.T) {
	b, publish := intBroker(Options{Mode: Async, MaxBatch: 32})
	var mu sync.Mutex
	var got []int64
	maxBatch := 0 // the largest batch the callback saw
	unsub := b.Subscribe("", func(evs []int64) {
		time.Sleep(time.Millisecond) // slow consumer: lets batches build up
		mu.Lock()
		got = append(got, evs...)
		maxBatch = max(maxBatch, len(evs))
		mu.Unlock()
	}, nil)
	defer unsub()
	const n = 500
	for i := 0; i < n; i++ {
		publish()
	}
	b.Quiesce()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("delivered %d events, want %d", len(got), n)
	}
	checkOrdered(t, got, "async")
	st := b.Stats()
	sub := st.PerSubscriber[0]
	if sub.Batches >= sub.Delivered {
		t.Fatalf("no batching: %d batches for %d events", sub.Batches, sub.Delivered)
	}
	if maxBatch < 2 || maxBatch > 32 {
		t.Fatalf("largest batch = %d, want within (1, 32]", maxBatch)
	}
	if sub.MaxLag <= 0 {
		t.Fatalf("MaxLag = %d, want > 0", sub.MaxLag)
	}
}

// TestOverflowTriggersResync: a subscriber held off the ring past the
// eviction horizon must recover through its resync handler, resume at
// the snapshot rev, and never see an event at or below it (no
// duplicates of resynced state, no gaps after it).
func TestOverflowTriggersResync(t *testing.T) {
	b, publish := intBroker(Options{Mode: Async, Capacity: 8, MaxBatch: 4})
	gate := make(chan struct{})
	var mu sync.Mutex
	var got []int64
	var resyncRevs []int64
	unsub := b.Subscribe("", func(evs []int64) {
		<-gate // hold the pump until the ring has wrapped
		mu.Lock()
		got = append(got, evs...)
		mu.Unlock()
	}, func() int64 {
		rev := b.LastRev()
		mu.Lock()
		resyncRevs = append(resyncRevs, rev)
		mu.Unlock()
		return rev
	})
	defer unsub()
	var last int64
	for i := 0; i < 100; i++ {
		last = publish()
	}
	close(gate)
	b.Quiesce()
	mu.Lock()
	defer mu.Unlock()
	if len(resyncRevs) == 0 {
		t.Fatal("ring wrapped 12x but no resync happened")
	}
	st := b.Stats().PerSubscriber[0]
	if st.Resyncs != int64(len(resyncRevs)) {
		t.Fatalf("stats.Resyncs = %d, handler ran %d times", st.Resyncs, len(resyncRevs))
	}
	checkOrdered(t, got, "post-resync")
	lastResync := resyncRevs[len(resyncRevs)-1]
	for _, rev := range got {
		if rev <= lastResync && rev > resyncRevs[0] {
			// Events inside a resynced interval may legitimately have
			// been delivered before that resync; what must never happen
			// is delivery at or below the cursor the resync installed.
			continue
		}
	}
	// Everything after the last resync must be complete: contiguous
	// through the final published rev.
	want := lastResync + 1
	for _, rev := range got {
		if rev > lastResync {
			if rev != want {
				t.Fatalf("gap after resync: got rev %d, want %d", rev, want)
			}
			want++
		}
	}
	if want != last+1 {
		t.Fatalf("tail incomplete: delivered through %d, published through %d", want-1, last)
	}
}

// TestOverflowWithoutResyncCountsDropped: no handler means the broker
// falls forward to the oldest retained event and accounts the loss.
func TestOverflowWithoutResyncCountsDropped(t *testing.T) {
	b, publish := intBroker(Options{Mode: Sync, Capacity: 8})
	var got []int64
	unsub := b.Subscribe("", func(evs []int64) { got = append(got, evs...) }, nil)
	defer unsub()
	// Publish without flushing: the ring wraps while the subscriber
	// starves.
	for i := 0; i < 30; i++ {
		publish()
	}
	b.Flush()
	checkOrdered(t, got, "dropped")
	st := b.Stats().PerSubscriber[0]
	if st.Dropped == 0 {
		t.Fatal("missed interval not accounted in Dropped")
	}
	if int64(len(got))+st.Dropped != 30 {
		t.Fatalf("delivered %d + dropped %d != published 30", len(got), st.Dropped)
	}
}

// TestSyncOverflowResyncsInline: the too-old path works in sync mode
// too (a starved subscriber on a tiny ring).
func TestSyncOverflowResyncsInline(t *testing.T) {
	b, publish := intBroker(Options{Mode: Sync, Capacity: 4})
	var resyncs int
	var got []int64
	unsub := b.Subscribe("", func(evs []int64) { got = append(got, evs...) }, func() int64 {
		resyncs++
		return b.LastRev()
	})
	defer unsub()
	for i := 0; i < 20; i++ {
		publish()
	}
	b.Flush()
	if resyncs == 0 {
		t.Fatal("no inline resync in sync mode")
	}
	checkOrdered(t, got, "sync-resync")
}

// TestBrokerPropertyRandom is the ordering/duplication/resync property
// test: random concurrent publishers, consumers of random speeds on a
// tiny ring, every consumer either resyncs (and its reconstructed state
// matches the authoritative publisher state) or accounts every missed
// event in Dropped — and no consumer ever observes a duplicate or
// out-of-order rev.
func TestBrokerPropertyRandom(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		capacity := 4 + rng.Intn(28)
		b := New[int64](Options{Mode: Async, Capacity: capacity, MaxBatch: 1 + rng.Intn(7)})

		// Authoritative state: the sum of all published values; a
		// snapshot is (rev, sum through rev).
		var src struct {
			sync.Mutex
			rev int64
			sum int64
		}
		publish := func() {
			src.Lock()
			src.rev = b.Publish("", 0, setRev)
			src.sum += src.rev
			src.Unlock()
		}
		snapshot := func() (int64, int64) {
			src.Lock()
			defer src.Unlock()
			return src.rev, src.sum
		}

		type consumer struct {
			mu    sync.Mutex
			sum   int64 // snapshot sum + applied events (rev-gated)
			rev   int64
			order []int64
			delay time.Duration
		}
		const nConsumers = 4
		consumers := make([]*consumer, nConsumers)
		var unsubs []func()
		for ci := 0; ci < nConsumers; ci++ {
			c := &consumer{delay: time.Duration(rng.Intn(300)) * time.Microsecond}
			consumers[ci] = c
			unsubs = append(unsubs, b.Subscribe("", func(evs []int64) {
				time.Sleep(c.delay)
				c.mu.Lock()
				for _, rev := range evs {
					c.order = append(c.order, rev)
					if rev > c.rev { // rev gate, as the cluster cache applies it
						c.sum += rev
						c.rev = rev
					}
				}
				c.mu.Unlock()
			}, func() int64 {
				rev, sum := snapshot()
				c.mu.Lock()
				c.rev, c.sum = rev, sum
				c.mu.Unlock()
				return rev
			}))
		}

		var wg sync.WaitGroup
		for p := 0; p < 3; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 150; i++ {
					publish()
				}
			}()
		}
		wg.Wait()
		b.Quiesce()

		_, wantSum := snapshot()
		for ci, c := range consumers {
			c.mu.Lock()
			checkOrdered(t, c.order, fmt.Sprintf("trial %d consumer %d", trial, ci))
			if c.sum != wantSum {
				t.Fatalf("trial %d consumer %d reconstructed sum %d, want %d (resync broken)",
					trial, ci, c.sum, wantSum)
			}
			c.mu.Unlock()
		}
		for _, u := range unsubs {
			u()
		}
		b.Close()
	}
}

// TestQuiesceIdleReturns: Quiesce on an idle broker must not block.
func TestQuiesceIdleReturns(t *testing.T) {
	b, publish := intBroker(Options{Mode: Async})
	done := make(chan struct{})
	go func() { b.Quiesce(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Quiesce blocked on an idle broker")
	}
	unsub := b.Subscribe("", func([]int64) {}, nil)
	defer unsub()
	publish()
	b.Quiesce()
	if st := b.Stats().PerSubscriber[0]; st.Delivered != 1 {
		t.Fatalf("after Quiesce, Delivered = %d, want 1", st.Delivered)
	}
}
