// Package watch implements an asynchronous versioned event broker — the
// in-process equivalent of the Kubernetes apiserver watch cache. It
// decouples state commits from event fan-out: a mutation appends its
// event to a fixed-capacity ring buffer indexed by resource version in
// O(1) and returns; subscribers consume the ring through per-subscriber
// cursors, in batches, without ever making the writer wait.
//
// There is one ring and one stream: every subscriber sees every event,
// in strict resource-version order, and a batch is a contiguous run of
// the ring starting just after the subscriber's cursor. "Every prefix of
// the stream is a consistent state of the source" is therefore a
// property of one array.
//
// Two delivery modes:
//
//   - Sync: events are delivered inline by Flush, on the publishing
//     goroutine, one batch per subscriber in subscription order. Flush
//     is a combining single flusher: the first caller claims the flush
//     and drains the ring completely; a call that finds a flusher
//     active — re-entrant from one of its callbacks or concurrent from
//     another goroutine, which the broker neither can nor needs to tell
//     apart — returns at once and leaves its events to that drain, which
//     re-reads the head after every callback and gives the claim up in
//     the same critical section as its last, empty sweep. Under a
//     single-goroutine simulation every event is therefore handed to
//     every subscriber before the outermost mutating call returns —
//     bit-for-bit reproducible, exactly like a callback list, which is
//     what the determinism and cache≡rebuild property tests pin. Under
//     concurrent publishers nothing is left undelivered once they have
//     all returned; a caller that needs delivery to have happened at
//     some earlier point uses Quiesce (from outside a callback).
//   - Async: every subscriber gets a pump goroutine that waits for new
//     events, copies whatever is pending (up to the batch cap) out of
//     the ring under the lock, and invokes the subscriber's callback
//     without it. Slow subscribers batch up naturally; fast publishers
//     never block on slow consumers.
//
// A Sequenced broker additionally accepts publishes out of rev order:
// writers that allocate revs from an atomic counter (the sharded API
// server) can race each other to Publish, and the broker buffers the
// out-of-order arrivals and appends them to the ring strictly in rev
// order once the gap fills. This requires dense revs — every rev
// allocated must eventually be published — which holds for the API
// server because allocation and publish are straight-line code under
// the owning shard's lock.
//
// A subscriber that falls so far behind that its cursor drops off the
// ring is "too old" (ErrTooOld): instead of stalling the writer or
// silently corrupting the consumer, the broker invokes the subscriber's
// resync handler, which re-primes the consumer from a fresh snapshot of
// the source of truth and returns the snapshot's resource version as the
// new cursor — the ListAndWatch-style relist Kubernetes clients perform
// on a 410 Gone. Subscribers without a resync handler have the missed
// interval counted in their back-pressure stats and continue from the
// oldest retained event.
//
// Unsubscribe is safe in both modes, from anywhere, and in both no
// callback for the subscription starts after it returns. In Async mode
// it additionally blocks until a callback in flight on the subscriber's
// pump has returned — unless it is called from inside that callback,
// where it returns immediately instead of self-deadlocking. In Sync mode
// it never waits: the callback in flight may be the caller's own frame,
// several levels up a re-entrant mutation, so a consumer that shares
// state between its callback and the goroutine that unsubscribes it
// guards that state itself.
package watch

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrTooOld reports that a cursor has fallen off the ring: events
// between the cursor and the oldest retained event were evicted, so the
// consumer can no longer be brought current by replay alone and must
// resync from a snapshot.
var ErrTooOld = errors.New("watch: resource version too old")

// Mode selects how the broker delivers events.
type Mode int

const (
	// Sync delivers inline via Flush on the publishing goroutine —
	// deterministic under a simulated clock.
	Sync Mode = iota
	// Async delivers on per-subscriber pump goroutines — publishers
	// never run subscriber code.
	Async
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Async {
		return "async"
	}
	return "sync"
}

// Defaults for Options.
const (
	// DefaultCapacity bounds the ring's retained event window. A
	// subscriber more than this many events behind the head resyncs.
	DefaultCapacity = 16384
	// DefaultMaxBatch caps the events handed to one callback invocation.
	DefaultMaxBatch = 256
)

// Options parameterises a Broker.
type Options struct {
	Mode Mode
	// Capacity is the ring size (DefaultCapacity when <= 0).
	Capacity int
	// MaxBatch caps one delivery batch (DefaultMaxBatch when <= 0).
	MaxBatch int
	// Sequenced accepts out-of-rev-order publishes from racing writers,
	// buffering gaps and appending in rev order. Requires dense revs:
	// every allocated rev must eventually be published.
	Sequenced bool
}

// SubscriberStats is the per-subscriber back-pressure accounting.
type SubscriberStats struct {
	// ID is the broker-assigned subscriber identity, stable for the
	// subscription's lifetime — the label telemetry keys per-subscriber
	// lag/resync gauges by.
	ID int64
	// Delivered counts events handed to the callback; Batches the
	// callback invocations (Delivered/Batches is the mean batch size).
	Delivered int64
	Batches   int64
	// MaxBatch is the largest single batch delivered.
	MaxBatch int
	// MaxLag is the largest observed distance (in resource versions)
	// between the newest published event and this subscriber's cursor at
	// the moment a batch was cut — how far behind the consumer ran.
	MaxLag int64
	// Resyncs counts ErrTooOld recoveries through the resync handler.
	Resyncs int64
	// Dropped counts the resource-version span skipped because the
	// subscriber fell off the ring and had no resync handler.
	Dropped int64
}

// Stats is the broker-level accounting.
type Stats struct {
	// Published counts events appended to the ring; Evicted those
	// overwritten by ring wrap-around.
	Published int64
	Evicted   int64
	// Subscribers is the live subscriber count; PerSubscriber their
	// stats in subscription order.
	Subscribers   int
	PerSubscriber []SubscriberStats
}

// entry is one retained event.
type entry[T any] struct {
	rev int64
	ev  T
}

// ring is the bounded event window. Guarded by the broker mutex.
type ring[T any] struct {
	buf      []entry[T]
	capacity int // retention bound; buf grows geometrically up to it
	start    int // index of the oldest retained event
	count    int

	evictedRev int64 // highest rev pushed off the ring
	published  int64
	evicted    int64
}

// append adds one event, growing the buffer geometrically up to the
// ring's capacity and evicting the oldest once that bound is reached.
// Lazy growth keeps a quiet broker's footprint proportional to its
// traffic instead of paying the full window up front: a broker is
// created per server, and preallocating the ring at capacity both slows
// construction and leaves a large pointer-bearing array live for the GC
// to scan even when the server never sees more than a handful of events.
func (r *ring[T]) append(rev int64, ev T) {
	if r.count == len(r.buf) && r.count < r.capacity {
		n := 2 * len(r.buf)
		if n == 0 {
			n = 64
		}
		if n > r.capacity {
			n = r.capacity
		}
		buf := make([]entry[T], n)
		for i := 0; i < r.count; i++ {
			buf[i] = *r.at(i)
		}
		r.buf, r.start = buf, 0
	}
	if r.count == len(r.buf) {
		old := &r.buf[r.start]
		r.evictedRev = old.rev
		var zero entry[T]
		*old = zero // release the payload to the GC
		r.start = (r.start + 1) % len(r.buf)
		r.count--
		r.evicted++
	}
	r.buf[(r.start+r.count)%len(r.buf)] = entry[T]{rev: rev, ev: ev}
	r.count++
	r.published++
}

// at returns the i-th oldest retained entry.
func (r *ring[T]) at(i int) *entry[T] { return &r.buf[(r.start+i)%len(r.buf)] }

// search returns the smallest ring offset whose event rev exceeds
// afterRev (count when none does). Revisions are strictly increasing
// along the ring, so this is a binary search.
func (r *ring[T]) search(afterRev int64) int {
	lo, hi := 0, r.count
	for lo < hi {
		mid := (lo + hi) / 2
		if r.at(mid).rev > afterRev {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// subStats is the internal per-subscriber accounting. Counters are
// atomics so Stats readers never contend with the delivery path (they
// load without taking the broker mutex for longer than the subscriber
// walk) and so delivery-side increments are race-free with reads.
type subStats struct {
	delivered atomic.Int64
	batches   atomic.Int64
	maxBatch  atomic.Int64
	maxLag    atomic.Int64
	resyncs   atomic.Int64
	dropped   atomic.Int64
}

func (s *subStats) snapshot() SubscriberStats {
	return SubscriberStats{
		Delivered: s.delivered.Load(),
		Batches:   s.batches.Load(),
		MaxBatch:  int(s.maxBatch.Load()),
		MaxLag:    s.maxLag.Load(),
		Resyncs:   s.resyncs.Load(),
		Dropped:   s.dropped.Load(),
	}
}

// subscription is one registered consumer. All fields except stats are
// guarded by the broker mutex; the callback itself runs with the mutex
// released, fenced by the delivering flag.
type subscription[T any] struct {
	id     int64
	cursor int64 // rev of the last event consumed (or start rev)
	fn     func([]T)
	resync func() int64 // nil: fall forward and count Dropped

	buf []T // reused batch buffer; callbacks must not retain it

	closed     bool
	delivering bool
	pumpGoid   int64 // Async: the pump goroutine, set once at pump start

	stats subStats
}

// Broker is a versioned event broker over one fixed-capacity ring
// buffer. The zero value is not usable; call New.
type Broker[T any] struct {
	mode      Mode
	maxBatch  int
	sequenced bool

	mu   sync.Mutex
	cond *sync.Cond // broadcast: publish, cursor advance, delivery end, close

	ring ring[T]

	lastRev int64 // rev of the newest appended event

	// stash holds sequenced publishes that arrived before their
	// predecessors; drained into the ring as gaps fill.
	stash map[int64]T

	subs   map[int64]*subscription[T]
	order  []int64 // subscription ids, ascending (= subscription order)
	nextID int64

	// flushing is the Sync-mode flush claim: the one flusher holding it
	// drains the ring for everyone, and every other Flush returns.
	flushing bool

	closed bool
}

// New creates a broker.
func New[T any](opts Options) *Broker[T] {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	b := &Broker[T]{
		mode:      opts.Mode,
		maxBatch:  opts.MaxBatch,
		sequenced: opts.Sequenced,
		ring:      ring[T]{capacity: opts.Capacity},
		subs:      make(map[int64]*subscription[T]),
	}
	if opts.Sequenced {
		b.stash = make(map[int64]T)
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Publish appends one event to the ring at the given resource version.
// On a non-sequenced broker revisions must be strictly increasing across
// calls — the caller serializes publishes (typically by holding its own
// state lock, which is safe: the append is O(1) and never runs
// subscriber code). On a sequenced broker, racing writers may arrive out
// of order; the event is buffered until every lower rev has been
// published, then appended in rev order. When the ring is full its
// oldest event is evicted; subscribers still needing it resync.
func (b *Broker[T]) Publish(rev int64, ev T) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	if rev <= b.lastRev {
		panic(fmt.Sprintf("watch: Publish rev %d not after %d", rev, b.lastRev))
	}
	if b.sequenced && rev != b.lastRev+1 {
		if _, dup := b.stash[rev]; dup {
			panic(fmt.Sprintf("watch: duplicate sequenced Publish rev %d", rev))
		}
		b.stash[rev] = ev
		return
	}
	b.ring.append(rev, ev)
	b.lastRev = rev
	if b.sequenced {
		// Drain any stashed successors whose gap just filled.
		for {
			next, ok := b.stash[b.lastRev+1]
			if !ok {
				break
			}
			delete(b.stash, b.lastRev+1)
			b.lastRev++
			b.ring.append(b.lastRev, next)
		}
	}
	b.cond.Broadcast()
}

// Subscribe registers fn for every event with rev > afterRev, delivered
// in batches in strict resource-version order with no duplicates. The
// batch slice is reused between invocations — callbacks must not retain
// it. resync (optional) is invoked when the subscriber falls off the
// ring: it must re-prime the consumer from a fresh snapshot of the
// source of truth and return that snapshot's resource version, which
// becomes the new cursor. The returned function unsubscribes, from
// anywhere including the callback itself: no callback starts after it
// returns, and in Async mode one in flight on another goroutine has
// returned too (Sync mode does not wait — see the package comment).
func (b *Broker[T]) Subscribe(afterRev int64, fn func([]T), resync func() int64) (unsubscribe func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return func() {}
	}
	b.nextID++
	sub := &subscription[T]{
		id:     b.nextID,
		cursor: afterRev,
		fn:     fn,
		resync: resync,
	}
	b.subs[sub.id] = sub
	b.order = append(b.order, sub.id)
	if b.mode == Async {
		go b.pump(sub)
	}
	return func() { b.unsubscribe(sub) }
}

// unsubscribe removes sub: callLocked checks closed under the mutex, so
// no callback for it starts once this returns. In Async mode it also
// waits out a delivery in flight on the pump, unless the caller is that
// delivery; in Sync mode the delivery in flight may be the caller's own
// frame, which shared state cannot tell from another goroutine's, so it
// does not wait.
func (b *Broker[T]) unsubscribe(sub *subscription[T]) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if sub.closed {
		return
	}
	sub.closed = true
	delete(b.subs, sub.id)
	for i, id := range b.order {
		if id == sub.id {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
	b.cond.Broadcast() // wake the pump so it exits
	if b.mode == Async && sub.delivering && sub.pumpGoid != goid() {
		for sub.delivering {
			b.cond.Wait()
		}
	}
}

// Close shuts the broker down: pumps exit, further publishes and
// subscribes are no-ops. Existing subscriptions are released.
func (b *Broker[T]) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.cond.Broadcast()
}

// Stats returns a snapshot of the broker and per-subscriber accounting,
// subscribers in subscription order.
func (b *Broker[T]) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := Stats{Published: b.ring.published, Evicted: b.ring.evicted, Subscribers: len(b.subs)}
	for _, id := range b.order {
		ss := b.subs[id].stats.snapshot()
		ss.ID = id
		st.PerSubscriber = append(st.PerSubscriber, ss)
	}
	return st
}

// Quiesce blocks until every subscriber's cursor has reached every
// event published before the call, no sequenced publish is stashed
// awaiting its gap, and no delivery or flush is in flight — the barrier
// tests and benchmarks use to observe a settled fan-out, and in Sync mode
// the way a goroutine whose Flush found another flusher active waits for
// its own events to land. Not from inside a callback: the flush it would
// wait out is the one running it.
func (b *Broker[T]) Quiesce() {
	b.mu.Lock()
	defer b.mu.Unlock()
	target := b.lastRev
	for {
		settled := !b.flushing && len(b.stash) == 0
		for _, sub := range b.subs {
			if sub.cursor < target || sub.delivering {
				settled = false
				break
			}
		}
		if settled || b.closed {
			return
		}
		b.cond.Wait()
	}
}

// Flush delivers every pending event inline, in resource-version order,
// one batch per subscriber in subscription order. It is a combining
// single flusher. The caller that finds no flush in progress claims it
// and drains until a whole sweep finds every subscriber current — with
// its own events, with those its callbacks published re-entrantly, with
// those other goroutines published meanwhile. A caller that finds a
// flusher active returns at once, be it one of that flusher's callbacks
// (a subscriber mutating the source synchronously) or another goroutine:
// the drain re-reads the head after every callback and gives the claim up
// in the same critical section as its final, empty sweep, so an event
// published before that sweep is delivered by it and one published after
// finds the claim free — no lost wake-up. One goroutine thus sees exactly
// a callback list; concurrent callers that need "delivered" rather than
// "being delivered by whoever flushes" call Quiesce. No-op in async mode.
func (b *Broker[T]) Flush() {
	if b.mode != Sync {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.flushing || b.closed {
		return
	}
	b.flushing = true
	b.drainLocked()
	b.flushing = false
	b.cond.Broadcast()
}

// drainLocked repeatedly offers pending events to every subscriber until
// a whole sweep delivers nothing (events published by the callbacks
// themselves, or by other goroutines meanwhile, included). Caller holds
// b.mu and has claimed the flushing flag; the mutex is released around
// callbacks.
func (b *Broker[T]) drainLocked() {
	for {
		progressed := false
		// Callbacks may subscribe and unsubscribe while the mutex is
		// released. Ids ascend along b.order, so a sweep covers the
		// subscribers present when it began by stopping at the newest id
		// of that moment, and survives removals by re-seating its index
		// on the first id after the one it just served.
		newest := b.nextID
		for i := 0; i < len(b.order) && b.order[i] <= newest; {
			sub := b.subs[b.order[i]]
			if sub.cursor < b.lastRev && b.serveLocked(sub) {
				progressed = true
			}
			if i < len(b.order) && b.order[i] == sub.id {
				i++
				continue
			}
			i = sort.Search(len(b.order), func(j int) bool { return b.order[j] > sub.id })
		}
		if !progressed {
			return
		}
	}
}

// pump is the async delivery loop for one subscriber.
func (b *Broker[T]) pump(sub *subscription[T]) {
	id := goid() // once per pump, never per event
	b.mu.Lock()
	defer b.mu.Unlock()
	sub.pumpGoid = id
	for {
		for !sub.closed && !b.closed && sub.cursor >= b.lastRev {
			b.cond.Wait()
		}
		if sub.closed || b.closed {
			return
		}
		b.serveLocked(sub)
	}
}

// serveLocked moves one subscriber forward: either delivers the next
// batch — the contiguous run of the ring just after its cursor — or runs
// its too-old recovery. Caller holds b.mu; it is released around the
// callback. Reports whether the cursor advanced.
func (b *Broker[T]) serveLocked(sub *subscription[T]) bool {
	r := &b.ring
	if horizon := r.evictedRev; sub.cursor < horizon {
		// Fell off the ring: events after the cursor were evicted.
		if sub.resync == nil {
			sub.stats.dropped.Add(horizon - sub.cursor)
			sub.cursor = horizon
			b.cond.Broadcast()
			return true
		}
		sub.stats.resyncs.Add(1)
		before := sub.cursor
		newCursor, ok := b.callLocked(sub, func() int64 { return sub.resync() })
		if !ok {
			return false
		}
		// A correct handler returns its snapshot's rev, which is >= the
		// eviction horizon at snapshot time; if the ring wrapped again
		// during the resync, the next serve detects it and resyncs again.
		if newCursor > sub.cursor {
			sub.cursor = newCursor
		}
		b.cond.Broadcast()
		return sub.cursor > before
	}
	// Cut a batch: up to maxBatch consecutive entries after the cursor.
	first := r.search(sub.cursor)
	n := min(r.count-first, b.maxBatch)
	if n == 0 {
		return false
	}
	batch := sub.buf[:0]
	if cap(batch) < b.maxBatch {
		batch = make([]T, 0, b.maxBatch)
	}
	for i := first; i < first+n; i++ {
		batch = append(batch, r.at(i).ev)
	}
	sub.buf = batch
	if lag := b.lastRev - sub.cursor; lag > sub.stats.maxLag.Load() {
		sub.stats.maxLag.Store(lag)
	}
	sub.cursor = r.at(first + n - 1).rev
	if _, ok := b.callLocked(sub, func() int64 { sub.fn(batch); return 0 }); !ok {
		return false
	}
	sub.stats.delivered.Add(int64(n))
	sub.stats.batches.Add(1)
	if int64(n) > sub.stats.maxBatch.Load() {
		sub.stats.maxBatch.Store(int64(n))
	}
	b.cond.Broadcast()
	return true
}

// callLocked runs a subscriber callback (delivery or resync) with the
// mutex released, fenced by the delivering flag so Quiesce and an Async
// unsubscribe can tell an in-flight callback from a settled one. Returns
// ok=false when the subscription was closed before the callback could
// start.
func (b *Broker[T]) callLocked(sub *subscription[T], f func() int64) (int64, bool) {
	if sub.closed {
		return 0, false
	}
	sub.delivering = true
	b.mu.Unlock()
	v := f()
	b.mu.Lock()
	sub.delivering = false
	b.cond.Broadcast()
	return v, true
}

// goid returns the current goroutine id (parsed from the runtime stack
// header) — a full traceback's worth of work, so it is the Async cold
// path's alone: once per pump start, and once per unsubscribe that finds
// a delivery in flight. Nothing per event and nothing in Sync mode calls
// it (TestArchitecture holds runtime.Stack to this one site).
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id int64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
