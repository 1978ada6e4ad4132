package clock

import (
	"container/heap"
	"sync"
	"time"
)

// SimEpoch is the start instant of a simulation. Using a fixed epoch keeps
// experiment output deterministic and diffable.
var SimEpoch = time.Date(2011, time.May, 1, 0, 0, 0, 0, time.UTC)

// never is Step's deadline: later than any event's instant.
var never = time.Unix(1<<62, 0)

// Sim is a deterministic discrete-event simulation clock.
//
// Components schedule work with AfterFunc; a single driver goroutine calls
// Step, Run or RunUntil to pop events in timestamp order and execute their
// callbacks synchronously. Virtual time jumps instantaneously between
// events, so replaying the paper's 1-hour Borg trace slice (§VI-B) takes
// milliseconds.
//
// Events that share a timestamp fire in scheduling order (FIFO), which
// keeps runs reproducible bit-for-bit. A timer is one heap entry: Stop
// takes it out, Reset moves it (or puts it back) with a fresh place in
// that order, exactly as a new AfterFunc would.
type Sim struct {
	mu  sync.Mutex
	now time.Time
	pq  eventQueue
	seq uint64
}

// NewSim returns a simulation clock starting at SimEpoch.
func NewSim() *Sim { return &Sim{now: SimEpoch} }

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// AfterFunc implements Clock. Callbacks run synchronously on the driver
// goroutine in timestamp order.
func (s *Sim) AfterFunc(d time.Duration, f func()) Timer {
	ev := &event{fn: f, clock: s, index: -1}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arm(ev, d)
	return ev
}

// arm schedules ev d from now (a negative d is now) behind every event
// already scheduled for that instant. Caller must hold s.mu.
func (s *Sim) arm(ev *event, d time.Duration) {
	ev.at = s.now.Add(max(d, 0))
	ev.seq = s.seq
	s.seq++
	if ev.index < 0 {
		heap.Push(&s.pq, ev)
	} else {
		heap.Fix(&s.pq, ev.index)
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
func (s *Sim) next(deadline time.Time, settle bool) *event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pq) == 0 || s.pq[0].at.After(deadline) {
		if settle && s.now.Before(deadline) {
			s.now = deadline
		}
		return nil
	}
	ev := heap.Pop(&s.pq).(*event)
	s.now = ev.at
	return ev
}

// Step pops the earliest pending event, advances virtual time to it and
// runs its callback. It reports whether an event was executed.
func (s *Sim) Step() bool {
	ev := s.next(never, false)
	if ev == nil {
		return false
	}
	ev.fn()
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
	for ev := s.next(deadline, true); ev != nil; ev = s.next(deadline, true) {
		ev.fn()
	}
}

// Run executes events until done returns true, the event queue drains, or
// the next event lies after horizon. It reports whether done became true.
//
// Periodic tasks reschedule themselves forever, so experiments always pass
// a done predicate (e.g. "all pods terminal") plus a safety horizon.
func (s *Sim) Run(done func() bool, horizon time.Time) bool {
	for done == nil || !done() {
		ev := s.next(horizon, false)
		if ev == nil {
			return done != nil && done()
		}
		ev.fn()
	}
	return true
}

// event is a Timer: one entry of its clock's heap while pending (index is
// its position there), out of it (index -1) once fired or stopped.
type event struct {
	at    time.Time
	seq   uint64
	fn    func()
	index int
	clock *Sim
}

// Stop implements Timer.
func (e *event) Stop() bool {
	s := e.clock
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.index < 0 {
		return false
	}
	heap.Remove(&s.pq, e.index)
	return true
}

// Reset implements Timer.
func (e *event) Reset(d time.Duration) {
	s := e.clock
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arm(e, d)
}

// eventQueue is a min-heap ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

var _ Clock = (*Sim)(nil)
