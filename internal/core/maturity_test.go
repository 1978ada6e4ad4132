package core

import (
	"container/heap"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// refMatHeap is the maturity heap as container/heap drives it: the
// oracle for matHeap's typed push and pop.
type refMatHeap []matEntry

func (h refMatHeap) Len() int           { return len(h) }
func (h refMatHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h refMatHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refMatHeap) Push(x any)        { *h = append(*h, x.(matEntry)) }
func (h *refMatHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestMaturityHeapMatchesContainerHeapProperty: over random runs of
// pushes and pops, with most instants shared by several entries, the
// typed heap pops exactly the entry container/heap pops, ties included.
// Matured pods re-fuse in pop order, and every recorded run depends on
// that order, so a sift that breaks a tie differently fails here.
func TestMaturityHeapMatchesContainerHeapProperty(t *testing.T) {
	base := time.Unix(1_500_000_000, 0)
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got matHeap
		var want refMatHeap
		instants := 1 + rng.Intn(8) // few instants: ties are the rule
		for op := 0; op < 400; op++ {
			if len(want) > 0 && rng.Intn(3) == 0 {
				w := heap.Pop(&want).(matEntry)
				if g := got.pop(); g != w {
					t.Fatalf("seed %d op %d: pop = %s@%v, container/heap pops %s@%v",
						seed, op, g.pod, g.at.Sub(base), w.pod, w.at.Sub(base))
				}
				continue
			}
			e := matEntry{
				at:  base.Add(time.Duration(rng.Intn(instants)) * time.Second),
				pod: "pod-" + strconv.Itoa(op),
			}
			got.push(e)
			heap.Push(&want, e)
		}
		for len(want) > 0 {
			if g, w := got.pop(), heap.Pop(&want).(matEntry); g != w {
				t.Fatalf("seed %d drain: pop = %s, container/heap pops %s", seed, g.pod, w.pod)
			}
		}
		if len(got) != 0 {
			t.Fatalf("seed %d: %d entries left after the oracle drained", seed, len(got))
		}
	}
}
