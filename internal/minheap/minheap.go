// Package minheap is the typed binary min-heap the scheduler's cache
// (pod maturity) and the monitor's WindowMax (front expiry) keep their
// due instants in. Push and Pop sift exactly as container/heap does, so
// entries due at the same instant surface in the order they always have,
// which every recorded run depends on. Keys are int64 Unix nanoseconds
// (tsdb.UnixNanos), compared directly, and nothing is boxed: the
// container/heap interface boxes every pushed and popped entry.
package minheap

// Entry is one payload due at At.
type Entry[T any] struct {
	At  int64 // Unix nanoseconds
	Val T
}

// Heap is a binary min-heap on At; h[0] is the earliest entry.
type Heap[T any] []Entry[T]

// Push adds v due at at.
func (h *Heap[T]) Push(at int64, v T) {
	q := append(*h, Entry[T]{At: at, Val: v})
	*h = q
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || q[j].At >= q[i].At {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

// Pop removes and returns the earliest entry. The heap must not be empty.
func (h *Heap[T]) Pop() Entry[T] {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && q[r].At < q[j].At {
			j = r
		}
		if q[j].At >= q[i].At {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	e := q[n]
	q[n] = Entry[T]{} // do not pin the payload through the slack
	*h = q[:n]
	return e
}
