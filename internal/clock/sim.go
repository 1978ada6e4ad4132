package clock

import (
	"container/heap"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// SimEpoch is the start instant of a simulation. Using a fixed epoch keeps
// experiment output deterministic and diffable.
var SimEpoch = time.Date(2011, time.May, 1, 0, 0, 0, 0, time.UTC)

// never is Step's deadline: no event's instant is later.
const never = math.MaxInt64

// Sim is a deterministic discrete-event simulation clock.
//
// Components schedule work with AfterFunc or Arm; a single driver
// goroutine calls Step, Run or RunUntil to pop events in timestamp order
// and execute their handlers synchronously. Virtual time jumps
// instantaneously between events, so replaying the paper's 1-hour Borg
// trace slice (§VI-B) takes milliseconds.
//
// Events that share a timestamp fire in scheduling order (FIFO), which
// keeps runs reproducible bit-for-bit. A timer is one heap entry, an Event:
// Stop takes it out, Reset moves it (or puts it back) with a fresh place in
// that order, exactly as a new AfterFunc would. An instant is int64
// nanoseconds since SimEpoch.
type Sim struct {
	now atomic.Int64 // stored under mu, loaded by Now without it

	mu  sync.Mutex
	pq  eventQueue
	seq uint64
}

// NewSim returns a simulation clock starting at SimEpoch.
func NewSim() *Sim { return &Sim{} }

// Now implements Clock.
func (s *Sim) Now() time.Time { return SimEpoch.Add(time.Duration(s.now.Load())) }

// AfterFunc implements Clock. Callbacks run synchronously on the driver
// goroutine in timestamp order.
func (s *Sim) AfterFunc(d time.Duration, f func()) Timer {
	ev := new(Event)
	s.Arm(ev, d, funcHandler(f))
	return ev
}

// Arm implements Clock.
func (s *Sim) Arm(ev *Event, d time.Duration, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev.h, ev.clock = h, s
	s.arm(ev, d)
}

// arm schedules ev d from now (a negative d is now) behind every event
// already scheduled for that instant. Caller must hold s.mu.
func (s *Sim) arm(ev *Event, d time.Duration) {
	now := s.now.Load()
	ev.at = now + min(max(int64(d), 0), never-now)
	ev.seq = s.seq
	s.seq++
	if ev.pos == 0 {
		heap.Push(&s.pq, ev)
	} else {
		heap.Fix(&s.pq, ev.pos-1)
	}
}

// Len reports the number of pending events.
func (s *Sim) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pq.Len()
}

// next pops the earliest pending event if it is due by deadline and
// advances virtual time to it. When none is due it returns nil, first
// moving the clock up to deadline if settle is set.
func (s *Sim) next(deadline int64, settle bool) *Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pq) == 0 || s.pq[0].at > deadline {
		if settle && s.now.Load() < deadline {
			s.now.Store(deadline)
		}
		return nil
	}
	ev := heap.Pop(&s.pq).(*Event)
	s.now.Store(ev.at)
	return ev
}

// Step pops the earliest pending event, advances virtual time to it and
// runs its handler. It reports whether an event was executed.
func (s *Sim) Step() bool {
	ev := s.next(never, false)
	if ev == nil {
		return false
	}
	ev.h.Fire()
	return true
}

// Advance runs every event scheduled within the next d of virtual time,
// then sets the clock to exactly now+d.
func (s *Sim) Advance(d time.Duration) {
	s.RunUntil(s.Now().Add(d))
}

// RunUntil executes events in order until the queue is empty or the next
// event lies after deadline; the clock finishes at deadline (or later if
// it had already passed it).
func (s *Sim) RunUntil(deadline time.Time) {
	at := int64(deadline.Sub(SimEpoch))
	for ev := s.next(at, true); ev != nil; ev = s.next(at, true) {
		ev.h.Fire()
	}
}

// Run executes events until done returns true, the event queue drains, or
// the next event lies after horizon. It reports whether done became true.
//
// Periodic tasks reschedule themselves forever, so experiments always pass
// a done predicate (e.g. "all pods terminal") plus a safety horizon.
func (s *Sim) Run(done func() bool, horizon time.Time) bool {
	at := int64(horizon.Sub(SimEpoch))
	for done == nil || !done() {
		ev := s.next(at, false)
		if ev == nil {
			return done != nil && done()
		}
		ev.h.Fire()
	}
	return true
}

// Event is a Timer: one entry of its clock's heap while pending. Its owner
// may keep it in a record it already has (Arm) or take a fresh one from
// AfterFunc; it must not be copied once armed, nor stopped or reset before.
type Event struct {
	at    int64 // nanoseconds since SimEpoch
	seq   uint64
	h     Handler
	pos   int // 1 + its heap index while pending, 0 otherwise: a zero Event is idle
	clock *Sim
}

// Stop implements Timer.
func (e *Event) Stop() bool {
	s := e.clock
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.pos == 0 {
		return false
	}
	heap.Remove(&s.pq, e.pos-1)
	return true
}

// Reset implements Timer.
func (e *Event) Reset(d time.Duration) {
	s := e.clock
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arm(e, d)
}

// eventQueue is a min-heap ordered by (at, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].pos = i + 1
	q[j].pos = j + 1
}

func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	*q = append(*q, ev)
	ev.pos = len(*q)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.pos = 0
	*q = old[:n-1]
	return ev
}

var _ Clock = (*Sim)(nil)
