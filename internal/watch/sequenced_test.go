package watch

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestSequencedPublishReorders: writers racing an atomic rev allocator
// may reach the broker out of order; events must still land on
// the ring — and reach subscribers — in rev order.
func TestSequencedPublishReorders(t *testing.T) {
	b := New[int64](Options{Mode: Sync})
	var got []int64
	unsub := b.Subscribe(0, "", func(evs []int64) { got = append(got, evs...) }, nil)
	defer unsub()
	b.Publish(2, "", 2)
	b.Publish(3, "", 3)
	if lr := b.LastRev(); lr != 0 {
		t.Fatalf("LastRev = %d with the gap at rev 1 unfilled, want 0", lr)
	}
	b.Publish(1, "", 1)
	if lr := b.LastRev(); lr != 3 {
		t.Fatalf("LastRev = %d after the gap filled, want 3", lr)
	}
	b.Flush()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("delivered %v, want [1 2 3]", got)
	}
}

// TestSequencedConcurrentPublishersDeliverInOrder hammers the reordering
// path: goroutines allocate revs from an atomic counter, publish in
// whatever order they are scheduled, and every subscriber must still
// observe the full dense stream in rev order.
func TestSequencedConcurrentPublishersDeliverInOrder(t *testing.T) {
	const (
		workers = 8
		perW    = 200
	)
	b := New[int64](Options{Mode: Sync})
	var mu sync.Mutex
	var got []int64
	unsub := b.Subscribe(0, "", func(evs []int64) {
		mu.Lock()
		got = append(got, evs...)
		mu.Unlock()
	}, nil)
	defer unsub()

	var seq atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				rev := seq.Add(1)
				b.Publish(rev, "", rev)
				b.Flush()
			}
		}()
	}
	wg.Wait()
	b.Flush()
	b.Quiesce()

	mu.Lock()
	defer mu.Unlock()
	if len(got) != workers*perW {
		t.Fatalf("delivered %d events, want %d", len(got), workers*perW)
	}
	checkOrdered(t, got, "sequenced concurrent")
	if b.LastRev() != int64(workers*perW) {
		t.Fatalf("LastRev = %d, want %d", b.LastRev(), workers*perW)
	}
}
