// Package watch implements an asynchronous versioned event broker — the
// in-process equivalent of the Kubernetes apiserver watch cache. It
// decouples state commits from event fan-out: a mutation appends its
// event to a fixed-capacity ring buffer indexed by resource version in
// O(1) and returns; subscribers consume the ring through per-subscriber
// cursors, in batches, without ever making the writer wait.
//
// There is one ring and one stream, in strict resource-version order.
// Each event is published with a key (the empty key for none), and a
// subscription is sent either the whole stream or the sub-sequence of one
// key's events, in the same order: a whole-stream batch is a contiguous
// run of the ring starting just after the subscriber's cursor, a keyed
// batch that run's events of its key. "Every prefix of the stream is a
// consistent state of the source" is therefore a property of one array.
//
// Two delivery modes:
//
//   - Sync: events are delivered inline by Flush, on the publishing
//     goroutine, one batch per subscriber with an event pending, in
//     subscription order. Flush is a combining single flusher: the first
//     caller claims the flush and drains the ring completely; a call
//     that finds a flusher active — re-entrant from one of its callbacks
//     or concurrent from another goroutine, which the broker neither can
//     nor needs to tell apart — returns at once and leaves its events to
//     that drain, which re-reads the head after every callback and gives
//     the claim up in the same critical section as its last, empty
//     sweep. Under a single-goroutine simulation every event is
//     therefore handed to every subscriber it is for before the
//     outermost mutating call returns — bit-for-bit reproducible,
//     exactly like a callback list, which is what the determinism and
//     cache≡rebuild property tests pin. Under
//     concurrent publishers nothing is left undelivered once they have
//     all returned; a caller that needs delivery to have happened at
//     some earlier point uses Quiesce (from outside a callback).
//   - Async: every subscriber gets a pump goroutine that waits for new
//     events, copies whatever is pending (up to the batch cap) out of
//     the ring under the lock, and invokes the subscriber's callback
//     without it. Slow subscribers batch up naturally; fast publishers
//     never block on slow consumers.
//
// The broker is the stream's one order point: Publish draws each event's
// resource version under the broker mutex as it appends it, so revs are
// dense, the first is 1, and the ring holds them in order whichever
// writer wins the mutex. A new subscription registers at the head under
// the same mutex, so it is sent exactly the events appended after it.
//
// A subscriber that falls so far behind that its cursor drops off the
// ring is too old — a keyed subscriber only when an event of its key was
// evicted undelivered. Instead of stalling the writer or
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
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

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
	// MaxLag is the largest observed distance (in resource versions)
	// between the newest published event and this subscriber's cursor at
	// the moment a batch was cut — how far behind the consumer ran.
	MaxLag int64
	// Resyncs counts recoveries through the resync handler of a cursor
	// that fell off the ring.
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

// entry is one retained event. Revs are dense and appended in order, so
// an entry's rev is its position: evictedRev + 1 + its ring offset.
type entry[T any] struct {
	key int32 // the interned key it was published with; 0: none
	ev  T
}

// ring is the bounded event window. Guarded by the broker mutex.
type ring[T any] struct {
	buf      []entry[T]
	capacity int // retention bound; buf grows geometrically up to it
	start    int // index of the oldest retained event
	count    int

	evictedRev int64 // highest rev pushed off the ring = events evicted
}

// append adds one event, growing the buffer geometrically up to the
// ring's capacity and evicting the oldest once that bound is reached.
// Lazy growth keeps a quiet broker's footprint proportional to its
// traffic instead of paying the full window up front: a broker is
// created per server, and preallocating the ring at capacity both slows
// construction and leaves a large pointer-bearing array live for the GC
// to scan even when the server never sees more than a handful of events.
// It returns the key of the event evicted to make room (0 when none was).
func (r *ring[T]) append(e entry[T]) (evictedKey int32) {
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
		evictedKey = old.key
		*old = entry[T]{} // release the payload to the GC
		r.start = (r.start + 1) % len(r.buf)
		r.count--
		r.evictedRev++
	}
	r.buf[(r.start+r.count)%len(r.buf)] = e
	r.count++
	return evictedKey
}

// at returns the i-th oldest retained entry.
func (r *ring[T]) at(i int) *entry[T] { return &r.buf[(r.start+i)%len(r.buf)] }

// subStats is the internal per-subscriber accounting. Counters are
// atomics so Stats readers never contend with the delivery path (they
// load without taking the broker mutex for longer than the subscriber
// walk) and so delivery-side increments are race-free with reads.
type subStats struct {
	delivered atomic.Int64
	batches   atomic.Int64
	maxLag    atomic.Int64
	resyncs   atomic.Int64
	dropped   atomic.Int64
}

func (s *subStats) snapshot() SubscriberStats {
	return SubscriberStats{
		Delivered: s.delivered.Load(),
		Batches:   s.batches.Load(),
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
	key    int32 // 0: the whole stream
	cursor int64 // rev of the last event consumed (or start rev)
	// next is a keyed subscription's first undelivered event: set when
	// one of its key is appended, re-sought when the cursor moves; 0 when
	// none is pending. Past the eviction horizon it means "fell off".
	next   int64
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
	mode     Mode
	maxBatch int

	mu   sync.Mutex
	cond *sync.Cond // broadcast: publish, cursor advance, delivery end, close

	ring ring[T]

	lastRev int64 // rev of the newest appended event

	// keys interns each key published or subscribed to; keyed is indexed
	// by the interned key.
	keys  map[string]int32
	keyed []keyState[T]

	order  []*subscription[T] // ids ascending (= subscription order)
	nextID int64

	// flushing is the Sync-mode flush claim: the one flusher holding it
	// drains the ring for everyone, and every other Flush returns.
	flushing bool

	closed bool
}

// keyState is one key's subscriptions and the newest rev of its events
// evicted from the ring.
type keyState[T any] struct {
	subs    []*subscription[T]
	evicted int64
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
		mode:     opts.Mode,
		maxBatch: opts.MaxBatch,
		ring:     ring[T]{capacity: opts.Capacity},
		keys:     make(map[string]int32),
		keyed:    make([]keyState[T], 1), // key 0 is "none"
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Publish appends one event to the ring under key ("" for none): it
// reaches the whole-stream subscribers and those of its key. It draws the
// event's resource version — the head's plus one — stamps it into the
// appended copy with stamp and returns it; after Close it appends nothing
// and returns 0. The append is O(1) and never runs subscriber code, so a
// caller may publish under its own state lock. When the ring is full its
// oldest event is evicted; subscribers still needing it resync.
func (b *Broker[T]) Publish(key string, ev T, stamp func(ev *T, rev int64)) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0
	}
	e := entry[T]{key: b.intern(key), ev: ev}
	if gone := b.ring.append(e); gone != 0 {
		b.keyed[gone].evicted = b.ring.evictedRev
	}
	b.lastRev++
	// Stamp the slot, not ev: ev's address passed to a func value escapes,
	// and every publish would allocate a copy of it.
	stamp(&b.ring.at(b.ring.count-1).ev, b.lastRev)
	for _, sub := range b.keyed[e.key].subs {
		if sub.next == 0 {
			sub.next = b.lastRev
		}
	}
	b.cond.Broadcast()
	return b.lastRev
}

// LastRev returns the resource version of the newest appended event, the
// head a new subscription registers at.
func (b *Broker[T]) LastRev() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastRev
}

// intern returns key's id, 0 for the empty key. Caller holds b.mu.
func (b *Broker[T]) intern(key string) int32 {
	if key == "" {
		return 0
	}
	k, ok := b.keys[key]
	if !ok {
		k = int32(len(b.keyed))
		b.keys[key] = k
		b.keyed = append(b.keyed, keyState[T]{})
	}
	return k
}

// Subscribe registers fn for every event appended after it — every
// event when key is "", else only those published under key — delivered
// in batches in strict resource-version order with no duplicates. The
// batch slice is reused between invocations — callbacks must not retain
// it. resync (optional) is invoked when the subscriber falls off the
// ring: it must re-prime the consumer from a fresh snapshot of the
// source of truth and return that snapshot's resource version, which
// becomes the new cursor. The returned function unsubscribes, from
// anywhere including the callback itself: no callback starts after it
// returns, and in Async mode one in flight on another goroutine has
// returned too (Sync mode does not wait — see the package comment).
func (b *Broker[T]) Subscribe(key string, fn func([]T), resync func() int64) (unsubscribe func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return func() {}
	}
	b.nextID++
	sub := &subscription[T]{
		id:     b.nextID,
		key:    b.intern(key),
		cursor: b.lastRev,
		fn:     fn,
		resync: resync,
	}
	if sub.key != 0 {
		b.keyed[sub.key].subs = append(b.keyed[sub.key].subs, sub)
	}
	b.order = append(b.order, sub)
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
	b.order = slices.DeleteFunc(b.order, func(s *subscription[T]) bool { return s == sub })
	if ks := &b.keyed[sub.key]; sub.key != 0 {
		ks.subs = slices.DeleteFunc(ks.subs, func(s *subscription[T]) bool { return s == sub })
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
	st := Stats{Published: b.lastRev, Evicted: b.ring.evictedRev, Subscribers: len(b.order)}
	for _, sub := range b.order {
		ss := sub.stats.snapshot()
		ss.ID = sub.id
		st.PerSubscriber = append(st.PerSubscriber, ss)
	}
	return st
}

// Quiesce blocks until every subscriber has been handed every event for
// it published before the call and no delivery or flush is in flight —
// the barrier tests and benchmarks use to observe a settled fan-out, and
// in Sync mode the way a goroutine whose Flush found another flusher
// active waits for its own events to land. Not from inside a callback: the flush it would
// wait out is the one running it.
func (b *Broker[T]) Quiesce() {
	b.mu.Lock()
	defer b.mu.Unlock()
	target := b.lastRev
	for {
		settled := !b.flushing
		for _, sub := range b.order {
			if next := b.pending(sub); next != 0 && next <= target || sub.delivering {
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

// drainLocked repeatedly offers pending events to every subscriber with
// one pending until a whole sweep delivers nothing (events published by
// the callbacks themselves, or by other goroutines meanwhile, included).
// Caller holds b.mu and has claimed the flushing flag; the mutex is
// released around callbacks.
func (b *Broker[T]) drainLocked() {
	for {
		progressed := false
		// Callbacks may subscribe and unsubscribe while the mutex is
		// released. Ids ascend along b.order, so a sweep covers the
		// subscribers present when it began by stopping at the newest id
		// of that moment, and survives removals by re-seating its index
		// on the first id after the one it just served.
		newest := b.nextID
		for i := 0; i < len(b.order) && b.order[i].id <= newest; {
			sub := b.order[i]
			if b.pending(sub) != 0 && b.serveLocked(sub) {
				progressed = true
			}
			if i < len(b.order) && b.order[i] == sub {
				i++
				continue
			}
			i = sort.Search(len(b.order), func(j int) bool { return b.order[j].id > sub.id })
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
		for !sub.closed && !b.closed && b.pending(sub) == 0 {
			b.cond.Wait()
		}
		if sub.closed || b.closed {
			return
		}
		b.serveLocked(sub)
	}
}

// pending returns the rev of sub's first undelivered event, 0 when it
// has none. Caller holds b.mu.
func (b *Broker[T]) pending(sub *subscription[T]) int64 {
	if sub.key != 0 {
		return sub.next
	}
	if sub.cursor < b.lastRev {
		return sub.cursor + 1
	}
	return 0
}

// moveLocked sets sub's cursor and, for a keyed subscription, seeks its
// next event: the first of its key in the ring after the cursor, or the
// one after the cursor if an event of its key past the cursor was
// evicted. Caller holds b.mu.
func (b *Broker[T]) moveLocked(sub *subscription[T], cursor int64) {
	sub.cursor, sub.next = cursor, 0
	if sub.key == 0 {
		return
	}
	r := &b.ring
	if cursor < r.evictedRev && b.keyed[sub.key].evicted > cursor {
		sub.next = cursor + 1
		return
	}
	for i := max(cursor-r.evictedRev, 0); i < int64(r.count); i++ {
		if r.at(int(i)).key == sub.key {
			sub.next = r.evictedRev + 1 + i
			return
		}
	}
}

// serveLocked moves one subscriber with an event pending forward: either
// delivers the next batch — its events of the ring from its first
// undelivered one — or runs its too-old recovery. Caller holds b.mu; it
// is released around the callback. Reports whether the cursor advanced.
func (b *Broker[T]) serveLocked(sub *subscription[T]) bool {
	r := &b.ring
	first := b.pending(sub)
	if horizon := r.evictedRev; first <= horizon {
		// Fell off the ring: an event it needed was evicted.
		if sub.resync == nil {
			sub.stats.dropped.Add(horizon - sub.cursor)
			b.moveLocked(sub, horizon)
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
			b.moveLocked(sub, newCursor)
		}
		b.cond.Broadcast()
		return sub.cursor > before
	}
	// Cut a batch: up to maxBatch of its events from the first, which
	// every key matches for a whole-stream subscriber; the next of them
	// after the batch becomes its next pending event.
	batch := sub.buf[:0]
	if cap(batch) < b.maxBatch {
		batch = make([]T, 0, b.maxBatch)
	}
	last, next := first, int64(0)
	for i := int(first - r.evictedRev - 1); i < r.count; i++ {
		e := r.at(i)
		if sub.key != 0 && e.key != sub.key {
			continue
		}
		rev := r.evictedRev + 1 + int64(i)
		if len(batch) == b.maxBatch {
			next = rev
			break
		}
		batch = append(batch, e.ev)
		last = rev
	}
	sub.buf = batch
	if lag := b.lastRev - first + 1; lag > sub.stats.maxLag.Load() {
		sub.stats.maxLag.Store(lag)
	}
	sub.cursor, sub.next = last, next
	if _, ok := b.callLocked(sub, func() int64 { sub.fn(batch); return 0 }); !ok {
		return false
	}
	sub.stats.delivered.Add(int64(len(batch)))
	sub.stats.batches.Add(1)
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
