package core

import (
	"math"
	"sort"

	"github.com/sgxorch/sgxorch/internal/api"
	"github.com/sgxorch/sgxorch/internal/resource"
)

// queuedPod is one queue entry: the pod as the event that queued it
// carried it (read-only; a watch event's pod may be retained), its request
// totals, summed once when it entered the queue, and the stamp its push
// drew. A tombstone has no pod and keeps its stamp.
type queuedPod struct {
	pod *api.Pod
	req resource.List
	seq uint64
}

// podQueue is one scheduler's queue of unscheduled pods, kept by its
// ClusterCache from the watch events (cache.go) — §IV's scheduler reads
// the orchestrator's pending jobs and decides their order itself:
// priority-then-FCFS (first-come first-served, refined by
// api.PodSpec.Priority tiers). Each priority holds its own FCFS bucket
// with a tombstone-and-compact layout, so enqueue and remove stay O(1)
// amortized and a walk costs what it delivers: it is read in chunks
// through a value cursor (pull), never copied whole.
//
// The queue is gang-aware: the walk coalesces a pod group — the first
// member of a group in a tier pulls its co-members in that tier forward,
// so a scheduling pass sees a whole gang adjacently instead of interleaved
// with unrelated pods (which would strand permits across passes). A pod's
// tier and group are read off its spec, which never changes.
type podQueue struct {
	prios   []int32 // distinct priorities ever pushed, sorted descending; a tier may be empty
	buckets map[int32]*queueBucket
}

// queueBucket is one priority tier's FCFS queue. Removed entries are
// tombstoned and compacted when they outnumber live ones (byName indexes
// the live ones).
type queueBucket struct {
	entries []queuedPod
	byName  map[string]int
	// head is the index of the first live entry: a queue drained from the
	// front (the FCFS case) is entered there, not through its tombstones.
	head int
	// groups indexes the bucket's gang members by group, in push order,
	// so the walk can emit a gang adjacently without scanning the bucket.
	groups map[string][]string
}

// push appends e at the tail of its pod's priority tier; e.seq must exceed
// every stamp pushed before it.
func (q *podQueue) push(e queuedPod) {
	prio, name, group := e.pod.Spec.Priority, e.pod.Name, e.pod.Spec.PodGroup
	b, ok := q.buckets[prio]
	if !ok {
		b = &queueBucket{byName: make(map[string]int)}
		q.buckets[prio] = b
		// Insert into the descending priority list.
		i := sort.Search(len(q.prios), func(i int) bool { return q.prios[i] < prio })
		q.prios = append(q.prios, 0)
		copy(q.prios[i+1:], q.prios[i:])
		q.prios[i] = prio
	}
	b.byName[name] = len(b.entries)
	b.entries = append(b.entries, e)
	if group != "" {
		if b.groups == nil {
			b.groups = make(map[string][]string)
		}
		b.groups[group] = append(b.groups[group], name)
	}
}

// entry returns the pod's queued entry, nil when it is not queued.
func (q *podQueue) entry(p *api.Pod) *queuedPod {
	if b := q.buckets[p.Spec.Priority]; b != nil {
		if i, ok := b.byName[p.Name]; ok {
			return &b.entries[i]
		}
	}
	return nil
}

// remove drops a pod from the queue (no-op when absent): its slot is
// tombstoned in O(1) and the bucket compacted once tombstones outnumber
// live entries. An emptied tier keeps its bucket, truncated, and its place
// in the tier list: most pods of a replay arrive into an empty queue, and
// the next push into the tier then allocates nothing. A walk steps over an
// empty tier.
func (q *podQueue) remove(p *api.Pod) {
	e := q.entry(p)
	if e == nil {
		return
	}
	name, b := p.Name, q.buckets[p.Spec.Priority]
	// A tombstone keeps its stamp, so the tier's stamps stay ascending for
	// the cursor's binary search.
	e.pod = nil
	delete(b.byName, name)
	if g := p.Spec.PodGroup; g != "" {
		members := b.groups[g]
		for i, m := range members {
			if m == name {
				b.groups[g] = append(members[:i], members[i+1:]...)
				break
			}
		}
		if len(b.groups[g]) == 0 {
			delete(b.groups, g)
		}
	}
	if len(b.byName) == 0 {
		// Every entry is a tombstone, so truncating drops no pod.
		b.entries, b.head = b.entries[:0], 0
		return
	}
	if len(b.entries)-len(b.byName) <= len(b.entries)/2 {
		// Each tombstone is stepped over here once, so the walk never is.
		for b.entries[b.head].pod == nil {
			b.head++
		}
		return
	}
	live := b.entries[:0]
	for _, e := range b.entries {
		if e.pod == nil {
			continue
		}
		b.byName[e.pod.Name] = len(live)
		live = append(live, e)
	}
	clear(b.entries[len(live):])
	b.entries, b.head = live, 0
}

// queueChunk is how many pods one pull of a walk hands out. A pass stops
// pulling when its bind budget is spent, so the chunk bounds what it
// copies beyond the pods it cycled; 64 is the bind budget the sharded
// fleets run with.
const queueChunk = 64

// queueCursor is where a walk of one queue stands, as a plain value: the
// tier it is in and the first stamp of that tier it has not examined,
// never an index or a pointer. Whatever happens to the queue between two
// pulls — tombstones compacted, the tier or the whole queue emptied and
// refilled, the cache resynced — the next pull finds its place again by
// binary search. horizon is the cache's next stamp when the walk began:
// the walk never delivers a stamp at or beyond it, so it sees the queue as
// it stood then, minus what has left since.
type queueCursor struct {
	prio    int32
	seq     uint64
	horizon uint64
}

// newQueueCursor starts a walk at the head of the highest tier.
func newQueueCursor(horizon uint64) queueCursor {
	return queueCursor{prio: math.MaxInt32, horizon: horizon}
}

// pull appends the walk's next chunk of queued pods to out, in
// priority-then-FCFS order, and moves cur past it; it reports whether the
// queue may hold more for this walk. Gang members are coalesced: the
// first live member of a group in a tier is immediately followed by its
// live co-members in that tier (in their own FCFS order), which are
// passed over where they stand. A pull ends once it holds queueChunk
// pods, except in a tier that holds gangs: a cursor cannot say which
// co-members a previous pull brought forward, so such a tier is delivered
// in one pull.
func (q *podQueue) pull(cur *queueCursor, out []queuedPod) ([]queuedPod, bool) {
	chunkEnd := len(out) + queueChunk // a length of out, which may arrive non-empty
	t := sort.Search(len(q.prios), func(i int) bool { return q.prios[i] <= cur.prio })
	for ; t < len(q.prios); t++ {
		if len(out) >= chunkEnd {
			return out, true
		}
		prio := q.prios[t]
		if prio < cur.prio {
			cur.prio, cur.seq = prio, 0
		}
		b := q.buckets[prio]
		gangs := len(b.groups) > 0
		i := sort.Search(len(b.entries), func(i int) bool { return b.entries[i].seq >= cur.seq })
		for i = max(i, b.head); i < len(b.entries) && b.entries[i].seq < cur.horizon; i++ {
			e := b.entries[i]
			if e.pod == nil {
				continue
			}
			if !gangs {
				if len(out) >= chunkEnd {
					cur.seq = e.seq
					return out, true
				}
				out = append(out, e)
				continue
			}
			g := e.pod.Spec.PodGroup
			members := b.groups[g] // nil for a pod in no gang
			if g != "" && members[0] != e.pod.Name {
				continue // delivered behind its group's first member
			}
			out = append(out, e)
			if g == "" {
				continue
			}
			for _, m := range members[1:] {
				me := b.entries[b.byName[m]]
				if me.seq >= cur.horizon {
					break
				}
				out = append(out, me)
			}
		}
		cur.seq = cur.horizon // nothing this walk may see is left in the tier
	}
	return out, false
}

// queueWalk is one walk over a scheduler's queue, taken a chunk at a time
// (ClusterCache.walk, then pull until it reports false). It holds no
// reference into the queue, so pods may come and go while it is open, and
// an abandoned walk costs nothing.
type queueWalk struct {
	sched string
	cur   queueCursor
}
