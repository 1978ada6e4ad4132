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
	after     int64  // the head it registered at
	key       string // "" for the whole stream
	hasResync bool
	unsub     func()

	mu      sync.Mutex
	trace   []step
	overCap int // a batch larger than Options.MaxBatch, if any

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

// modelKey is the key rev was published under: a fixed hash of the rev
// and the trial, skewed so that "" (none) is common and "c" rare. Key
// "d" is subscribed to but never published.
func modelKey(rev int64, trial int) string {
	h := uint64(rev)*0x9E3779B97F4A7C15 ^ uint64(trial)
	h ^= h >> 29
	return [...]string{"", "", "", "a", "a", "a", "b", "b", "b", "", "c", "", "a", "b", "", ""}[h%16]
}

// next returns the first published rev greater than rev that s is sent
// (0 if none): the successor, or for a keyed subscriber the first
// successor of its key.
func (s *modelSub) next(log []int64, rev int64, keyOf func(int64) string) int64 {
	for r := succ(log, rev); r != 0; r = succ(log, r) {
		if s.key == "" || keyOf(r) == s.key {
			return r
		}
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
// whose next event fell under the horizon drops the span or resyncs at
// the head, then receives every published rev after its cursor. A keyed
// subscriber is the same model over the log filtered by its key: it falls
// off only when an event of its key was evicted.
func (s *modelSub) predict(log []int64, capacity int, keyOf func(int64) string) {
	if next, horizon := s.next(log, s.cursor, keyOf), evictedRev(log, capacity); next != 0 && next <= horizon {
		if s.hasResync {
			head := log[len(log)-1]
			s.want = append(s.want, step{rev: head, resync: true})
			s.cursor = head
		} else {
			s.dropped += horizon - s.cursor
			s.cursor = horizon
		}
	}
	for r := s.next(log, s.cursor, keyOf); r != 0; r = s.next(log, r, keyOf) {
		s.want = append(s.want, step{rev: r})
		s.cursor = r
	}
}

// explain replays a recorded trace against the published log and returns
// the Dropped and Resyncs the broker must have counted to produce it: the
// stream — filtered by key for a keyed subscriber — has to be dense, each
// delivered rev the successor of the one before, except across a
// recorded resync, or, for a subscriber without a handler, across a drop.
// Either needs an event the subscriber was to be sent evicted (at or
// under horizon, the final one). A drop moves the cursor to the horizon
// of its moment: just before the next rev delivered for a whole-stream
// subscriber, so Dropped is exact; somewhere from the first rev skipped
// to just before the next one delivered (or the final horizon) for a
// keyed one, so Dropped is bounded.
func (s *modelSub) explain(log []int64, horizon int64, keyOf func(int64) string) (droppedLo, droppedHi, resyncs int64, err error) {
	cursor := s.after
	gap := func(want, until int64) error {
		if s.hasResync || want == 0 || want > horizon {
			return fmt.Errorf("rev %d undelivered at cursor %d without an eviction of it (horizon %d)", want, cursor, horizon)
		}
		droppedHi += until - cursor
		if s.key == "" {
			droppedLo += until - cursor
		} else {
			droppedLo += want - cursor
		}
		return nil
	}
	for i, st := range s.trace {
		want := s.next(log, cursor, keyOf)
		if st.resync {
			if st.rev < cursor {
				return 0, 0, 0, fmt.Errorf("step %d: resync to rev %d behind cursor %d", i, st.rev, cursor)
			}
			if want == 0 || want > horizon {
				return 0, 0, 0, fmt.Errorf("step %d: resync at cursor %d, but nothing it was to be sent was evicted", i, cursor)
			}
			resyncs++
			cursor = st.rev
			continue
		}
		if st.rev <= cursor {
			return 0, 0, 0, fmt.Errorf("step %d: rev %d delivered at cursor %d (duplicate or out of order)", i, st.rev, cursor)
		}
		if s.key != "" && keyOf(st.rev) != s.key {
			return 0, 0, 0, fmt.Errorf("step %d: rev %d of key %q delivered to key %q", i, st.rev, keyOf(st.rev), s.key)
		}
		if st.rev != want {
			if err := gap(want, pred(log, st.rev)); err != nil {
				return 0, 0, 0, fmt.Errorf("step %d: %v", i, err)
			}
		}
		cursor = st.rev
	}
	if want := s.next(log, cursor, keyOf); want != 0 {
		// Only a keyed subscriber may settle past a drop with nothing of
		// its key retained after the horizon.
		if s.key == "" {
			return 0, 0, 0, fmt.Errorf("settled at cursor %d with rev %d undelivered", cursor, want)
		}
		if err := gap(want, horizon); err != nil {
			return 0, 0, 0, fmt.Errorf("settled: %v", err)
		}
	}
	return droppedLo, droppedHi, resyncs, nil
}

// TestBatchCutModelProperty checks the batch cut — a run of the ring from
// the subscriber's first undelivered event — against a plain slice of
// the published revs: random capacities on both sides of the ring's
// first allocation (so it grows lazily and wraps), MaxBatch 1–7, and a
// random interleaving of publish bursts, flushes and late subscribes at
// the head, with and without a resync handler. Events carry
// keys, and every other subscriber is keyed: its model is the
// whole-stream model over the log filtered by its key, falling off only
// when an event of its key was evicted. In Sync mode the
// schedule is the test's, so the model predicts every subscriber's exact
// trace, Dropped and Resyncs. In Async mode the pumps choose when to cut,
// so the recorded trace is replayed instead: dense, in order, no
// duplicate, every gap a counted drop or a recorded resync — and no gap
// at all in the trials whose ring retains everything.
func TestBatchCutModelProperty(t *testing.T) {
	for _, mode := range []Mode{Sync, Async} {
		for trial := 0; trial < 24; trial++ {
			t.Run(fmt.Sprintf("%s/%d", mode, trial), func(t *testing.T) {
				runBatchCutModel(t, mode, trial, rand.New(rand.NewSource(int64(9100+trial))))
			})
		}
	}
}

func runBatchCutModel(t *testing.T, mode Mode, trial int, rng *rand.Rand) {
	const events = 600
	capacity := 8 + rng.Intn(193) // the ring's first allocation is 64 entries
	if rng.Intn(4) == 0 {
		capacity = 2 * events // retains everything: nothing may be missed
	}
	maxBatch := 1 + rng.Intn(7)
	b := New[int64](Options{Mode: mode, Capacity: capacity, MaxBatch: maxBatch})
	defer b.Close()

	var log []int64 // every published rev, ascending
	keyOf := func(rev int64) string { return modelKey(rev, trial) }
	var head int64
	var subs []*modelSub
	subscribe := func() {
		s := &modelSub{after: head, hasResync: rng.Intn(2) == 0}
		if len(subs)%2 == 1 {
			s.key = [...]string{"c", "d", "a", "b"}[len(subs)/2%4]
		}
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
		s.unsub = b.Subscribe(s.key, func(evs []int64) {
			if mode == Async && len(evs)%2 == 1 {
				runtime.Gosched() // let the publisher run ahead of this pump
			}
			s.mu.Lock()
			for _, rev := range evs {
				s.trace = append(s.trace, step{rev: rev})
			}
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
				s.predict(log, capacity, keyOf)
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
				if rev := b.Publish(keyOf(head), 0, setRev); rev != head {
					t.Fatalf("Publish drew rev %d, want %d", rev, head)
				}
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
		if got.Delivered != delivered {
			t.Fatalf("sub %d: stats %+v, callbacks saw %d events", i, got, delivered)
		}
		droppedLo, droppedHi, resyncs, err := s.explain(log, evictedRev(log, capacity), keyOf)
		if err != nil {
			t.Fatalf("sub %d (after %d, key %q, resync %v, capacity %d): %v", i, s.after, s.key, s.hasResync, capacity, err)
		}
		if got.Dropped < droppedLo || got.Dropped > droppedHi || got.Resyncs != resyncs {
			t.Fatalf("sub %d (key %q): Dropped/Resyncs = %d/%d, trace explains %d–%d/%d", i, s.key, got.Dropped, got.Resyncs, droppedLo, droppedHi, resyncs)
		}
		if capacity >= events && droppedHi+resyncs != 0 {
			t.Fatalf("sub %d: %d dropped, %d resyncs on a ring that retains everything", i, droppedHi, resyncs)
		}
		if mode == Sync {
			if fmt.Sprint(s.trace) != fmt.Sprint(s.want) || got.Dropped != s.dropped {
				t.Fatalf("sub %d (after %d, key %q, resync %v, capacity %d, batch %d): Dropped %d, model %d\n got %v\nwant %v",
					i, s.after, s.key, s.hasResync, capacity, maxBatch, got.Dropped, s.dropped, s.trace, s.want)
			}
		}
	}
}
