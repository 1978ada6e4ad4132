package watch

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// step is one thing a subscriber observed: a delivered rev, or a resync
// whose handler snapshotted the source at rev.
type step struct {
	rev    int64
	resync bool
}

// modelSub is one subscriber of the model test: what it was registered
// with, what its callbacks recorded, and — in Sync mode, where the
// schedule is the test's own — what the slice model predicted.
type modelSub struct {
	after     int64
	hasResync bool
	unsub     func()

	mu       sync.Mutex
	trace    []step
	maxBatch int // largest batch a callback saw
	overCap  int // a batch larger than Options.MaxBatch, if any

	// Sync-mode prediction.
	cursor  int64
	want    []step
	dropped int64
}

// succ returns the first published rev greater than rev (0 if none).
func succ(log []int64, rev int64) int64 {
	if i := sort.Search(len(log), func(i int) bool { return log[i] > rev }); i < len(log) {
		return log[i]
	}
	return 0
}

// pred returns the last published rev smaller than rev (0 if none).
func pred(log []int64, rev int64) int64 {
	if i := sort.Search(len(log), func(i int) bool { return log[i] >= rev }); i > 0 {
		return log[i-1]
	}
	return 0
}

// evictedRev is the model's eviction horizon: with capacity entries
// retained, the newest rev no longer among them.
func evictedRev(log []int64, capacity int) int64 {
	if len(log) <= capacity {
		return 0
	}
	return log[len(log)-capacity-1]
}

// predict advances the Sync-mode model through one Flush: a subscriber
// whose cursor fell under the horizon drops the span or resyncs at the
// head, then receives every published rev after its cursor.
func (s *modelSub) predict(log []int64, capacity int) {
	if horizon := evictedRev(log, capacity); s.cursor < horizon {
		if s.hasResync {
			head := log[len(log)-1]
			s.want = append(s.want, step{rev: head, resync: true})
			s.cursor = head
		} else {
			s.dropped += horizon - s.cursor
			s.cursor = horizon
		}
	}
	for r := succ(log, s.cursor); r != 0; r = succ(log, r) {
		s.want = append(s.want, step{rev: r})
		s.cursor = r
	}
}

// explain replays a recorded trace against the published log and returns
// the Dropped and Resyncs the broker must have counted to produce it: the
// stream has to be dense — each delivered rev the successor of the one
// before — except across a recorded resync, or, for a subscriber without
// a handler, across a drop, which moves the cursor to the rev just before
// the next one delivered.
func (s *modelSub) explain(log []int64) (dropped, resyncs int64, err error) {
	cursor := s.after
	for i, st := range s.trace {
		if st.resync {
			if st.rev < cursor {
				return 0, 0, fmt.Errorf("step %d: resync to rev %d behind cursor %d", i, st.rev, cursor)
			}
			resyncs++
			cursor = st.rev
			continue
		}
		if st.rev <= cursor {
			return 0, 0, fmt.Errorf("step %d: rev %d delivered at cursor %d (duplicate or out of order)", i, st.rev, cursor)
		}
		if want := succ(log, cursor); st.rev != want {
			if s.hasResync || pred(log, st.rev) == 0 {
				return 0, 0, fmt.Errorf("step %d: rev %d delivered at cursor %d, want %d", i, st.rev, cursor, want)
			}
			dropped += pred(log, st.rev) - cursor
		}
		cursor = st.rev
	}
	if next := succ(log, cursor); next != 0 {
		return 0, 0, fmt.Errorf("settled at cursor %d with rev %d undelivered", cursor, next)
	}
	return dropped, resyncs, nil
}

// TestBatchCutModelProperty checks the batch cut — one search plus a
// contiguous run of the ring — against a plain slice of the published
// revs: random capacities on both sides of the ring's first allocation
// (so it grows lazily and wraps), MaxBatch 1–7, and a random
// interleaving of publish bursts, flushes and late subscribes at
// arbitrary cursors, with and without a resync handler. In Sync mode the
// schedule is the test's, so the model predicts every subscriber's exact
// trace, Dropped and Resyncs. In Async mode the pumps choose when to cut,
// so the recorded trace is replayed instead: dense, in order, no
// duplicate, every gap a counted drop or a recorded resync — and no gap
// at all in the trials whose ring retains everything.
func TestBatchCutModelProperty(t *testing.T) {
	for _, mode := range []Mode{Sync, Async} {
		for trial := 0; trial < 24; trial++ {
			t.Run(fmt.Sprintf("%s/%d", mode, trial), func(t *testing.T) {
				runBatchCutModel(t, mode, rand.New(rand.NewSource(int64(9100+trial))))
			})
		}
	}
}

func runBatchCutModel(t *testing.T, mode Mode, rng *rand.Rand) {
	const events = 600
	capacity := 8 + rng.Intn(193) // the ring's first allocation is 64 entries
	if rng.Intn(4) == 0 {
		capacity = 2 * events // retains everything: nothing may be missed
	}
	maxBatch := 1 + rng.Intn(7)
	b := New[int64](Options{Mode: mode, Capacity: capacity, MaxBatch: maxBatch})
	defer b.Close()

	var log []int64 // every published rev, ascending
	var head int64
	var subs []*modelSub
	subscribe := func() {
		s := &modelSub{after: rng.Int63n(head + 4), hasResync: rng.Intn(2) == 0}
		s.cursor = s.after
		var resync func() int64
		if s.hasResync {
			resync = func() int64 {
				rev := b.LastRev()
				s.mu.Lock()
				s.trace = append(s.trace, step{rev: rev, resync: true})
				s.mu.Unlock()
				return rev
			}
		}
		s.unsub = b.Subscribe(s.after, func(evs []int64) {
			if mode == Async && len(evs)%2 == 1 {
				runtime.Gosched() // let the publisher run ahead of this pump
			}
			s.mu.Lock()
			for _, rev := range evs {
				s.trace = append(s.trace, step{rev: rev})
			}
			s.maxBatch = max(s.maxBatch, len(evs))
			if len(evs) > maxBatch {
				s.overCap = len(evs)
			}
			s.mu.Unlock()
		}, resync)
		subs = append(subs, s)
	}
	flush := func() {
		b.Flush()
		if mode == Sync {
			for _, s := range subs {
				s.predict(log, capacity)
			}
		}
	}

	subscribe()
	for len(log) < events {
		switch op := rng.Intn(10); {
		case op < 6:
			for n := 1 + rng.Intn(2*capacity); n > 0 && len(log) < events; n-- {
				head++
				log = append(log, head)
				b.Publish(head, head)
			}
		case op < 9:
			flush()
		case len(subs) < 8:
			subscribe()
		}
	}
	flush()
	b.Quiesce()

	st := b.Stats()
	if st.Published != events || st.Evicted != int64(max(0, events-capacity)) {
		t.Fatalf("Published/Evicted = %d/%d, want %d/%d", st.Published, st.Evicted, events, max(0, events-capacity))
	}
	for i, s := range subs {
		s.unsub()
		got := st.PerSubscriber[i]
		var delivered int64
		for _, e := range s.trace {
			if !e.resync {
				delivered++
			}
		}
		if s.overCap != 0 {
			t.Fatalf("sub %d: batch of %d exceeds MaxBatch %d", i, s.overCap, maxBatch)
		}
		if got.Delivered != delivered || got.MaxBatch != s.maxBatch {
			t.Fatalf("sub %d: stats %+v, callbacks saw %d events, largest batch %d", i, got, delivered, s.maxBatch)
		}
		dropped, resyncs, err := s.explain(log)
		if err != nil {
			t.Fatalf("sub %d (after %d, resync %v, capacity %d): %v", i, s.after, s.hasResync, capacity, err)
		}
		if got.Dropped != dropped || got.Resyncs != resyncs {
			t.Fatalf("sub %d: Dropped/Resyncs = %d/%d, trace explains %d/%d", i, got.Dropped, got.Resyncs, dropped, resyncs)
		}
		if capacity >= events && dropped+resyncs != 0 {
			t.Fatalf("sub %d: %d dropped, %d resyncs on a ring that retains everything", i, dropped, resyncs)
		}
		if mode == Sync {
			if fmt.Sprint(s.trace) != fmt.Sprint(s.want) || got.Dropped != s.dropped {
				t.Fatalf("sub %d (after %d, resync %v, capacity %d, batch %d): Dropped %d, model %d\n got %v\nwant %v",
					i, s.after, s.hasResync, capacity, maxBatch, got.Dropped, s.dropped, s.trace, s.want)
			}
		}
	}
}
