package minheap

import (
	"container/heap"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// refHeap is the heap as container/heap drives it: the oracle for Heap's
// typed Push and Pop.
type refHeap []Entry[string]

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].At < h[j].At }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(Entry[string])) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestMaturityHeapMatchesContainerHeapProperty: over random runs of
// pushes and pops, with most instants shared by several entries, the
// typed heap pops exactly the entry container/heap pops, ties included.
// Matured pods re-fuse, and expired fronts are announced, in pop order,
// and every recorded run depends on that order, so a sift that breaks a
// tie differently fails here.
func TestMaturityHeapMatchesContainerHeapProperty(t *testing.T) {
	base := time.Unix(1_500_000_000, 0).UnixNano()
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got Heap[string]
		var want refHeap
		instants := 1 + rng.Intn(8) // few instants: ties are the rule
		for op := 0; op < 400; op++ {
			if len(want) > 0 && rng.Intn(3) == 0 {
				w := heap.Pop(&want).(Entry[string])
				if g := got.Pop(); g != w {
					t.Fatalf("seed %d op %d: pop = %s@%v, container/heap pops %s@%v",
						seed, op, g.Val, time.Duration(g.At-base), w.Val, time.Duration(w.At-base))
				}
				continue
			}
			e := Entry[string]{
				At:  base + int64(rng.Intn(instants))*int64(time.Second),
				Val: "pod-" + strconv.Itoa(op),
			}
			got.Push(e.At, e.Val)
			heap.Push(&want, e)
		}
		for len(want) > 0 {
			if g, w := got.Pop(), heap.Pop(&want).(Entry[string]); g != w {
				t.Fatalf("seed %d drain: pop = %s, container/heap pops %s", seed, g.Val, w.Val)
			}
		}
		if len(got) != 0 {
			t.Fatalf("seed %d: %d entries left after the oracle drained", seed, len(got))
		}
	}
}
