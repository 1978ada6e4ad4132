package watch

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestConcurrentPublishersDrawDenseRevs: the broker is the stream's one
// order point. Racing publishers get back exactly the revs 1..n, each
// publisher's own revs ascending; a whole-stream subscriber is sent
// 1..n in order and a keyed one exactly the revs drawn under its key, in
// order. After Close a publish draws nothing and appends nothing.
func TestConcurrentPublishersDrawDenseRevs(t *testing.T) {
	for _, mode := range []Mode{Sync, Async} {
		t.Run(mode.String(), func(t *testing.T) {
			const (
				workers = 8
				perW    = 200
				n       = workers * perW
			)
			keys := []string{"", "a", "b"}
			b := New[int64](Options{Mode: mode, Capacity: 2 * n})
			var mu sync.Mutex
			got := map[string][]int64{}
			for _, key := range keys {
				defer b.Subscribe(key, func(evs []int64) {
					mu.Lock()
					got[key] = append(got[key], evs...)
					mu.Unlock()
				}, nil)()
			}

			drawn := make([][]int64, workers)
			keyOf := make([]string, n+1)
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range perW {
						key := keys[(w+i)%len(keys)]
						rev := b.Publish(key, 0, setRev)
						if rev < 1 || rev > n {
							t.Errorf("publisher %d drew rev %d, outside 1..%d", w, rev, n)
							return
						}
						keyOf[rev] = key
						drawn[w] = append(drawn[w], rev)
						b.Flush()
					}
				}()
			}
			wg.Wait()
			b.Quiesce()

			var all []int64
			for w, revs := range drawn {
				if !slices.IsSorted(revs) {
					t.Fatalf("publisher %d drew revs out of order: %v", w, revs)
				}
				all = append(all, revs...)
			}
			slices.Sort(all)
			want := map[string][]int64{}
			for i, rev := range all {
				if rev != int64(i+1) {
					t.Fatalf("drawn revs are not exactly 1..%d: position %d holds %d", n, i, rev)
				}
				want[""] = append(want[""], rev)
				if k := keyOf[rev]; k != "" {
					want[k] = append(want[k], rev)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for _, key := range keys {
				if fmt.Sprint(got[key]) != fmt.Sprint(want[key]) {
					t.Fatalf("subscriber %q was sent %d events, want the %d drawn under it, in order", key, len(got[key]), len(want[key]))
				}
			}

			b.Close()
			if rev := b.Publish("", 0, setRev); rev != 0 {
				t.Fatalf("Publish after Close drew rev %d, want 0", rev)
			}
			if st := b.Stats(); st.Published != n || b.LastRev() != n {
				t.Fatalf("after Close: Published %d, head %d, want %d", st.Published, b.LastRev(), n)
			}
		})
	}
}
