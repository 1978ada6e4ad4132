package watch

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// propSub is one subscriber of TestSyncFlushConcurrentProperty. got is
// written by its callback alone — in Sync mode one flusher runs one
// callback at a time, handing over through the broker mutex — and read
// by the test after every publisher has joined.
type propSub struct {
	start int64 // the cursor it subscribed at
	unsub func()
	got   []int64

	// closedInCallback is set, on the flusher, once an unsubscribe made
	// from inside a callback has returned: no callback of this subscriber
	// is in flight then, so none may ever start again.
	closedInCallback bool
	startedAfter     bool
	// fence is 0 while the subscriber is live; once its unsubscribe has
	// returned it holds the newest rev allocated by then. A batch is cut
	// under the broker mutex before its callback starts, so a rev
	// allocated after the unsubscribe returned can reach the subscriber
	// only through a callback that started after it.
	fence atomic.Int64
}

// TestSyncFlushConcurrentProperty is the combining Flush's contract under
// real interleavings: racing publishers on a Sync broker whose
// Flush either claims the drain or returns at once, callbacks that
// publish re-entrantly, and callbacks that subscribe newcomers and
// unsubscribe themselves and others in the middle of a sweep. Every
// subscriber must see every rev after its start exactly once and in
// order; once the publishers have joined nothing may be undelivered (no
// lost wake-up — nobody flushes or quiesces on their behalf); no callback
// may start after its unsubscribe returned; and Quiesce from a goroutine
// that is not a callback must return.
func TestSyncFlushConcurrentProperty(t *testing.T) {
	const (
		rounds     = 80
		publishers = 4
		perRound   = 5
		baseSubs   = 4
	)
	b := New[int64](Options{Mode: Sync, Capacity: 1 << 14, MaxBatch: 4})
	defer b.Close()

	var seq atomic.Int64
	publish := func() {
		rev := seq.Add(1)
		b.Publish(rev, "", rev)
		b.Flush() // claims the drain, or returns at once if someone holds it
	}

	var (
		mu        sync.Mutex // guards all, evictable
		all       []*propSub
		evictable []*propSub // dynamic subscribers someone else unsubscribes
	)
	// subscribe registers a recorder; act, when non-nil, runs on every
	// delivered rev (on the flusher, mutex released).
	subscribe := func(act func(s *propSub, rev int64)) *propSub {
		s := &propSub{start: b.LastRev()}
		s.unsub = b.Subscribe(s.start, "", func(evs []int64) {
			if s.closedInCallback {
				s.startedAfter = true
			}
			for _, rev := range evs {
				s.got = append(s.got, rev)
				if act != nil {
					act(s, rev)
				}
			}
		}, nil)
		mu.Lock()
		all = append(all, s)
		mu.Unlock()
		return s
	}
	popEvictable := func() *propSub {
		mu.Lock()
		defer mu.Unlock()
		if len(evictable) == 0 {
			return nil
		}
		s := evictable[0]
		evictable = evictable[1:]
		return s
	}
	closeFromCallback := func(s *propSub) {
		s.unsub()
		s.closedInCallback = true
		s.fence.Store(seq.Load())
	}

	dynamic := 0 // touched by subscriber 1's callback only
	for i := 0; i < baseSubs; i++ {
		switch i {
		case 0: // mutates the source from inside delivery
			subscribe(func(_ *propSub, rev int64) {
				if rev%7 == 0 {
					publish()
				}
			})
		case 1: // subscribes newcomers mid-sweep; every third leaves by itself
			subscribe(func(_ *propSub, rev int64) {
				if rev%23 != 0 {
					return
				}
				dynamic++
				if dynamic%3 == 0 {
					subscribe(func(s *propSub, _ int64) {
						if len(s.got) == 5 {
							closeFromCallback(s)
						}
					})
					return
				}
				s := subscribe(nil)
				mu.Lock()
				evictable = append(evictable, s)
				mu.Unlock()
			})
		case 2: // unsubscribes others mid-sweep
			subscribe(func(_ *propSub, rev int64) {
				if rev%41 == 0 {
					if s := popEvictable(); s != nil {
						closeFromCallback(s)
					}
				}
			})
		default:
			subscribe(nil)
		}
	}

	// Rounds, so that "the publishers have joined" — the instant at which
	// a lost wake-up would show as an event nobody is left to deliver —
	// comes round many times per run, not once.
	quiesced := make(chan struct{})
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for p := 0; p < publishers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perRound; i++ {
					publish()
				}
				if round == rounds/2 && p == 0 {
					go func() { b.Quiesce(); close(quiesced) }()
				}
				if round%8 == p { // unsubscribe from outside any callback
					if s := popEvictable(); s != nil {
						s.unsub()
						s.fence.Store(seq.Load())
					}
				}
			}()
		}
		wg.Wait()
		total := seq.Load()
		mu.Lock()
		for i, s := range all {
			if last := s.start + int64(len(s.got)); s.fence.Load() == 0 && last != total {
				t.Fatalf("round %d, subscriber %d: delivered through rev %d of %d with every publisher joined (lost wake-up)",
					round, i, last, total)
			}
		}
		mu.Unlock()
	}

	if total := seq.Load(); total <= rounds*publishers*perRound {
		t.Fatalf("published %d revs: the re-entrant publishes never ran", total)
	}
	mu.Lock()
	defer mu.Unlock()
	closed := 0
	for i, s := range all {
		for j, rev := range s.got {
			if want := s.start + 1 + int64(j); rev != want {
				t.Fatalf("subscriber %d (start %d): delivery %d is rev %d, want %d (gap, duplicate or reordering)",
					i, s.start, j, rev, want)
			}
		}
		if s.startedAfter {
			t.Errorf("subscriber %d: a callback started after its in-callback unsubscribe returned", i)
		}
		if fence := s.fence.Load(); fence != 0 {
			closed++
			if last := s.start + int64(len(s.got)); last > fence {
				t.Errorf("subscriber %d: saw rev %d, allocated after its unsubscribe returned (fence %d)", i, last, fence)
			}
		}
	}
	if len(all) == baseSubs || closed == 0 {
		t.Fatalf("%d subscribers, %d unsubscribed: the churn never ran", len(all), closed)
	}
	select {
	case <-quiesced:
	case <-time.After(5 * time.Second):
		t.Fatal("Quiesce from a non-callback goroutine never returned")
	}
}

// TestSyncPublishFlushAllocsPinned: a steady-state Sync Publish + Flush
// to six whole-stream subscribers and two keyed ones allocates nothing —
// the ring is at capacity, the batch buffers exist, the keys are
// interned, the sweep walks the subscriber order in place. Anything
// per-event on this path (a goroutine-id lookup allocates its stack
// buffer, a copy of the order its slice) trips it.
func TestSyncPublishFlushAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	b := New[int64](Options{Mode: Sync, Capacity: 64})
	var delivered, keyed int64
	for i := 0; i < 6; i++ {
		defer b.Subscribe(0, "", func(evs []int64) { delivered += int64(len(evs)) }, nil)()
	}
	for _, key := range []string{"a", "b"} {
		defer b.Subscribe(0, key, func(evs []int64) { keyed += int64(len(evs)) }, nil)()
	}
	var rev, wantKeyed int64
	step := func() {
		rev++
		key := [...]string{"a", "", "b"}[rev%3]
		if key != "" {
			wantKeyed++
		}
		b.Publish(rev, key, rev)
		b.Flush()
	}
	for i := 0; i < 100; i++ { // wrap the ring, size every batch buffer
		step()
	}
	if got := testing.AllocsPerRun(1000, step); got != 0 {
		t.Fatalf("Sync Publish+Flush to 8 subscribers allocates %.1f objects per event, want 0", got)
	}
	if delivered != 6*rev || keyed != wantKeyed {
		t.Fatalf("delivered %d events and %d keyed, want %d and %d", delivered, keyed, 6*rev, wantKeyed)
	}
}

// TestSyncSweepCoversSubscribersPresentAtItsStart pins which subscribers
// a sweep serves when callbacks change the subscriber list under it — on
// one goroutine, where the order of callbacks is part of the simulated
// runs' determinism. A sweep walks the list in place, and must still
// serve exactly the subscribers present when it began, in subscription
// order: an unsubscribe at or before the sweep's position skips nobody,
// and a newcomer waits for the next sweep.
func TestSyncSweepCoversSubscribersPresentAtItsStart(t *testing.T) {
	b, publish := intBroker(Options{Mode: Sync})
	var log []string
	record := func(name string, evs []int64) {
		for _, rev := range evs {
			log = append(log, fmt.Sprintf("%s%d", name, rev))
		}
	}
	var unsubA func()
	unsubA = b.Subscribe(0, "", func(evs []int64) {
		record("A", evs)
		unsubA() // removes the entry the sweep stands on
	}, nil)
	unsubZ := b.Subscribe(0, "", func(evs []int64) { record("Z", evs) }, nil)
	defer b.Subscribe(0, "", func(evs []int64) {
		record("B", evs)
		if evs[0] == 1 {
			b.Subscribe(b.LastRev(), "", func(evs []int64) { record("E", evs) }, nil)
			publish() // rev 2, left to this drain
			b.Flush()
		}
	}, nil)()
	defer b.Subscribe(0, "", func(evs []int64) {
		record("C", evs)
		unsubZ() // removes an entry behind the sweep's position
	}, nil)()
	defer b.Subscribe(0, "", func(evs []int64) { record("D", evs) }, nil)()

	publish()
	b.Flush()
	// Sweep 1: A, Z, B (E joins, rev 2 appears), C and D with both revs.
	// Sweep 2: those still behind, B before the newcomer; A and Z are gone.
	want := "A1 Z1 B1 C1 C2 D1 D2 B2 E2"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("callback order %q, want %q", got, want)
	}
}
