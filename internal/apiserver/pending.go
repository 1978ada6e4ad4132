package apiserver

import (
	"math"
	"sort"

	"github.com/sgxorch/sgxorch/internal/api"
)

// pendingQueue is the server's persistent queue of unscheduled pods:
// priority-then-FCFS (§IV's first-come first-served order, refined by
// api.PodSpec.Priority tiers). Each priority holds its own FCFS bucket
// with the tombstone-and-compact layout the plain FCFS queue used, so
// enqueue and remove stay O(1) amortized and a walk costs what it
// delivers: it is read in chunks through a value cursor (pull), never
// copied whole. Pod names are unique across the whole queue.
//
// The queue is gang-aware: pods pushed with a pod-group name are
// coalesced by the walk — the first-encountered member of a group pulls
// its live co-members in the same priority tier forward, so a
// scheduling pass sees a whole gang adjacently instead of interleaved
// with unrelated pods (which would strand permits across passes).
type pendingQueue struct {
	prios   []int32 // distinct priorities ever pushed, sorted descending; a tier may be empty
	buckets map[int32]*pendingBucket
	idx     map[string]int32  // pod name → its bucket's priority
	groupOf map[string]string // pod name → pod group (gang members only)
	// classOf/classCount surface per-workload-class queue depth (classOf
	// holds classified pods only, like groupOf holds gang members;
	// unclassified depth is Len minus the classified sum). Accounting
	// only — class never affects queue order: within a tier the queue
	// stays strictly FCFS regardless of class, so class-aware routing
	// lives entirely in the scheduler, not the server.
	classOf    map[string]api.WorkloadClass
	classCount map[api.WorkloadClass]int
}

// pendingEntry is one queued name beside the stamp its push drew from
// the set-wide counter (pendingSet.nextSeq). A tier's stamps ascend with
// its push order, which is what lets a cursor find its place again by
// binary search; a removed entry keeps its stamp and loses its name.
type pendingEntry struct {
	name string
	seq  uint64
}

// pendingBucket is one priority tier's FCFS queue. Removed entries are
// tombstoned (name "") and compacted when they outnumber live ones.
type pendingBucket struct {
	entries []pendingEntry
	byName  map[string]int
	dead    int
	// head is the index of the first live entry: a queue drained from the
	// front (the FCFS case) is entered there, not through its tombstones.
	head int
	// groups indexes the bucket's gang members by group, in push order,
	// so the walk can emit a gang adjacently without scanning the bucket.
	groups map[string][]string
}

func newPendingQueue() *pendingQueue {
	return &pendingQueue{
		buckets: make(map[int32]*pendingBucket),
		idx:     make(map[string]int32),
		groupOf: make(map[string]string),
	}
}

// Len returns the number of queued pods.
func (q *pendingQueue) Len() int { return len(q.idx) }

// ClassCounts folds the queue's per-workload-class depth into out
// (allocating it when nil): one entry per known class with queued pods,
// plus api.ClassUnspecified for the unclassified remainder.
func (q *pendingQueue) ClassCounts(out map[api.WorkloadClass]int) map[api.WorkloadClass]int {
	if out == nil {
		out = make(map[api.WorkloadClass]int, len(q.classCount)+1)
	}
	classified := 0
	for c, n := range q.classCount {
		out[c] += n
		classified += n
	}
	if rest := q.Len() - classified; rest > 0 {
		out[api.ClassUnspecified] += rest
	}
	return out
}

// PriorityCounts folds the queue's live depth per priority tier into out
// (allocating it when nil). O(tiers): each bucket's live size is
// len(byName) — the lazily-compacted entries slice may be longer, but the
// index is exact.
func (q *pendingQueue) PriorityCounts(out map[int32]int) map[int32]int {
	if out == nil {
		out = make(map[int32]int, len(q.prios))
	}
	for _, prio := range q.prios {
		if b := q.buckets[prio]; b != nil && len(b.byName) > 0 {
			out[prio] += len(b.byName)
		}
	}
	return out
}

// Push appends a pod at the tail of its priority tier under the stamp
// seq, which must exceed every stamp pushed before it. A non-empty
// group registers the pod for gang coalescing within the tier; a known
// class registers it in the per-class depth accounting.
func (q *pendingQueue) Push(name string, seq uint64, prio int32, group string, class api.WorkloadClass) {
	b, ok := q.buckets[prio]
	if !ok {
		b = &pendingBucket{byName: make(map[string]int)}
		q.buckets[prio] = b
		// Insert into the descending priority list.
		i := sort.Search(len(q.prios), func(i int) bool { return q.prios[i] < prio })
		q.prios = append(q.prios, 0)
		copy(q.prios[i+1:], q.prios[i:])
		q.prios[i] = prio
	}
	b.byName[name] = len(b.entries)
	b.entries = append(b.entries, pendingEntry{name: name, seq: seq})
	q.idx[name] = prio
	if group != "" {
		if b.groups == nil {
			b.groups = make(map[string][]string)
		}
		b.groups[group] = append(b.groups[group], name)
		q.groupOf[name] = group
	}
	if class.Known() {
		if q.classOf == nil {
			q.classOf = make(map[string]api.WorkloadClass)
			q.classCount = make(map[api.WorkloadClass]int)
		}
		q.classOf[name] = class
		q.classCount[class]++
	}
}

// Remove drops a pod from the queue (no-op when absent): its slot is
// tombstoned in O(1) and the bucket compacted once tombstones outnumber
// live entries. An emptied tier keeps its bucket, truncated, and its place
// in the tier list: most pods of a replay arrive into an empty queue, and
// the next push into the tier then allocates nothing. A walk steps over an
// empty tier, and PriorityCounts skips it.
func (q *pendingQueue) Remove(name string) {
	prio, ok := q.idx[name]
	if !ok {
		return
	}
	delete(q.idx, name)
	if c, ok := q.classOf[name]; ok {
		delete(q.classOf, name)
		if q.classCount[c]--; q.classCount[c] <= 0 {
			delete(q.classCount, c)
		}
	}
	b := q.buckets[prio]
	b.entries[b.byName[name]].name = ""
	delete(b.byName, name)
	b.dead++
	if g, gang := q.groupOf[name]; gang {
		delete(q.groupOf, name)
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
		// Every entry is a tombstone, so truncating drops no name.
		b.entries = b.entries[:0]
		b.dead, b.head = 0, 0
		return
	}
	if b.dead <= len(b.entries)/2 {
		// Each tombstone is stepped over here once, so the walk never is.
		for b.entries[b.head].name == "" {
			b.head++
		}
		return
	}
	live := b.entries[:0]
	for _, e := range b.entries {
		if e.name == "" {
			continue
		}
		b.byName[e.name] = len(live)
		live = append(live, e)
	}
	clear(b.entries[len(live):])
	b.entries = live
	b.dead, b.head = 0, 0
}

// pendingChunk is how many names one pull of a walk hands out. A pass
// stops pulling when its bind budget is spent, so the chunk bounds what
// it copies beyond the pods it cycled; 64 is the bind budget the sharded
// fleets run with, and one pull under pendingMu stays a few hundred
// nanoseconds.
const pendingChunk = 64

// pendingCursor is where a walk of one queue stands, as a plain value:
// the tier it is in and the first stamp of that tier it has not examined,
// never an index or a pointer. Whatever happens to the queue between two
// pulls — tombstones compacted, the tier or the whole per-scheduler
// sub-queue emptied and refilled — the next pull finds its place again by
// binary search. horizon is the set's next stamp when the walk began: the
// walk never delivers a stamp at or beyond it, so it sees the queue as it
// stood then, minus what has left since.
type pendingCursor struct {
	prio    int32
	seq     uint64
	horizon uint64
}

// newPendingCursor starts a walk at the head of the highest tier.
func newPendingCursor(horizon uint64) pendingCursor {
	return pendingCursor{prio: math.MaxInt32, horizon: horizon}
}

// pull appends the walk's next chunk of queued names to names, in
// priority-then-FCFS order, and moves cur past it; it reports whether the
// queue may hold more for this walk. Gang members are coalesced: the
// first live member of a group in a tier is immediately followed by its
// live co-members in that tier (in their own FCFS order), which are
// passed over where they stand. A pull ends once it holds pendingChunk
// names, or limit when that is smaller (limit <= 0: no cap), except in a
// tier that holds gangs: a cursor cannot say which co-members a previous
// pull brought forward, so such a tier is delivered in one pull, ended
// early by limit alone — checked between gangs, never inside one — and a
// walk that limit ended there must not resume.
func (q *pendingQueue) pull(cur *pendingCursor, names []string, limit int) ([]string, bool) {
	// Both bounds as lengths of names, which may arrive non-empty.
	chunkEnd, limitEnd := len(names)+pendingChunk, math.MaxInt
	if limit > 0 {
		limitEnd = len(names) + limit
		chunkEnd = min(chunkEnd, limitEnd)
	}
	t := sort.Search(len(q.prios), func(i int) bool { return q.prios[i] <= cur.prio })
	for ; t < len(q.prios); t++ {
		if len(names) >= chunkEnd {
			return names, true
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
			if e.name == "" {
				continue
			}
			if !gangs {
				if len(names) >= chunkEnd {
					cur.seq = e.seq
					return names, true
				}
				names = append(names, e.name)
				continue
			}
			g := q.groupOf[e.name]
			members := b.groups[g] // nil for a pod in no gang
			if g != "" && members[0] != e.name {
				continue // delivered behind its group's first member
			}
			if len(names) >= limitEnd {
				cur.seq = e.seq
				return names, true
			}
			names = append(names, e.name)
			if g == "" {
				continue
			}
			for _, m := range members[1:] {
				if b.entries[b.byName[m]].seq >= cur.horizon {
					break
				}
				names = append(names, m)
			}
		}
		cur.seq = cur.horizon // nothing this walk may see is left in the tier
	}
	return names, false
}

// Snapshot returns the queued names in priority-then-FCFS order.
func (q *pendingQueue) Snapshot() []string {
	out := make([]string, 0, len(q.idx))
	cur := newPendingCursor(math.MaxUint64)
	for more := true; more; {
		out, more = q.pull(&cur, out, 0)
	}
	return out
}

// pendingSet is the pending queue with a per-scheduler index: the global
// priority-then-FCFS order (the §IV queue, what Snapshot and
// PendingCount expose) plus one sub-queue per Spec.SchedulerName, so a
// scheduler fleet member walks only its own shard instead of every
// member scanning the whole queue every round. The per-scheduler view is
// exactly the global order filtered to that scheduler: pushes hit both
// structures in the same order, under the same stamp.
type pendingSet struct {
	all     *pendingQueue
	bySched map[string]*pendingQueue
	// nextSeq stamps the next push. One counter for the whole set, so the
	// value a walk reads when it begins is a horizon over whichever queue
	// it walks, a sub-queue created after that moment included.
	nextSeq uint64
}

func newPendingSet() *pendingSet {
	return &pendingSet{
		all:     newPendingQueue(),
		bySched: make(map[string]*pendingQueue),
	}
}

// Len returns the number of queued pods across all schedulers.
func (ps *pendingSet) Len() int { return ps.all.Len() }

// Push appends a pod at the tail of its priority tier, globally and in
// its scheduler's sub-queue. Pods with no scheduler name live only in
// the global view — lookups for "" short-circuit to it. A non-empty
// group enables gang coalescing on the walk (see pendingQueue); a known
// class feeds the per-class depth accounting (ClassCounts).
func (ps *pendingSet) Push(name, sched string, prio int32, group string, class api.WorkloadClass) {
	seq := ps.nextSeq
	ps.nextSeq++
	ps.all.Push(name, seq, prio, group, class)
	if sched == "" {
		return
	}
	q, ok := ps.bySched[sched]
	if !ok {
		q = newPendingQueue()
		ps.bySched[sched] = q
	}
	q.Push(name, seq, prio, group, class)
}

// Remove drops a pod from both views (no-op when absent). A scheduler's
// emptied sub-queue is kept, like an emptied tier, for its next push.
func (ps *pendingSet) Remove(name, sched string) {
	ps.all.Remove(name)
	if sched == "" {
		return
	}
	if q, ok := ps.bySched[sched]; ok {
		q.Remove(name)
	}
}

// queue returns the named scheduler's view (the empty name: the global
// queue), nil when the scheduler has never had a pod queued.
func (ps *pendingSet) queue(sched string) *pendingQueue {
	if sched == "" {
		return ps.all
	}
	return ps.bySched[sched]
}

// pull is pendingQueue.pull over the named scheduler's view.
func (ps *pendingSet) pull(sched string, cur *pendingCursor, names []string, limit int) ([]string, bool) {
	q := ps.queue(sched)
	if q == nil {
		return names, false
	}
	return q.pull(cur, names, limit)
}

// ClassCounts returns the named scheduler's queued pods per workload
// class (the empty name reports the global queue).
func (ps *pendingSet) ClassCounts(sched string) map[api.WorkloadClass]int {
	if q := ps.queue(sched); q != nil {
		return q.ClassCounts(nil)
	}
	return map[api.WorkloadClass]int{}
}

// PriorityCounts returns the named scheduler's queued pods per priority
// tier (the empty name reports the global queue).
func (ps *pendingSet) PriorityCounts(sched string) map[int32]int {
	if q := ps.queue(sched); q != nil {
		return q.PriorityCounts(nil)
	}
	return map[int32]int{}
}

// Snapshot returns all queued names in global priority-then-FCFS order.
func (ps *pendingSet) Snapshot() []string { return ps.all.Snapshot() }
