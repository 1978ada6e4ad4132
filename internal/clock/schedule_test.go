package clock

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// lazySim is the reference for Sim: the clock as it was before a timer
// became one heap entry. Stop only flags an event, the drivers pop and
// discard flagged events, and every arm is a new event. Two things differ
// from that clock, both the Timer contract: an event counts as done once
// popped, so Stop after the callback fired reports false, and Len counts
// only what is still to fire.
type lazySim struct {
	mu  sync.Mutex
	now time.Time
	pq  lazyQueue
	seq uint64
}

type lazyEvent struct {
	at   time.Time
	seq  uint64
	fn   func()
	done bool // stopped or popped
}

type lazyQueue []*lazyEvent

func (q lazyQueue) Len() int { return len(q) }
func (q lazyQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q lazyQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *lazyQueue) Push(x any)   { *q = append(*q, x.(*lazyEvent)) }
func (q *lazyQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

func (s *lazySim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

func (s *lazySim) arm(d time.Duration, f func()) *lazyEvent {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := &lazyEvent{at: s.now.Add(d), seq: s.seq, fn: f}
	s.seq++
	heap.Push(&s.pq, ev)
	return ev
}

func (s *lazySim) stop(ev *lazyEvent) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	was := !ev.done
	ev.done = true
	return was
}

// AfterFunc returns a handle whose Reset is Stop plus a new arm of the
// same callback.
func (s *lazySim) AfterFunc(d time.Duration, f func()) Timer {
	return &lazyTimer{s: s, fn: f, ev: s.arm(d, f)}
}

type lazyTimer struct {
	s  *lazySim
	fn func()
	ev *lazyEvent
}

func (t *lazyTimer) Stop() bool { return t.s.stop(t.ev) }

func (t *lazyTimer) Reset(d time.Duration) {
	t.Stop()
	t.ev = t.s.arm(d, t.fn)
}

func (s *lazySim) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ev := range s.pq {
		if !ev.done {
			n++
		}
	}
	return n
}

// popRunnable discards cancelled events and returns the next live one.
// Caller must hold s.mu.
func (s *lazySim) popRunnable() *lazyEvent {
	for s.pq.Len() > 0 {
		ev := heap.Pop(&s.pq).(*lazyEvent)
		if !ev.done {
			ev.done = true
			return ev
		}
	}
	return nil
}

func (s *lazySim) Step() bool {
	s.mu.Lock()
	ev := s.popRunnable()
	if ev == nil {
		s.mu.Unlock()
		return false
	}
	s.now = ev.at
	s.mu.Unlock()
	ev.fn()
	return true
}

func (s *lazySim) RunUntil(deadline time.Time) {
	for {
		s.mu.Lock()
		ev := s.popRunnable()
		if ev == nil || ev.at.After(deadline) {
			if ev != nil {
				ev.done = false
				heap.Push(&s.pq, ev)
			}
			if s.now.Before(deadline) {
				s.now = deadline
			}
			s.mu.Unlock()
			return
		}
		s.now = ev.at
		s.mu.Unlock()
		ev.fn()
	}
}

func (s *lazySim) Run(done func() bool, horizon time.Time) bool {
	for {
		if done != nil && done() {
			return true
		}
		s.mu.Lock()
		ev := s.popRunnable()
		if ev == nil {
			s.mu.Unlock()
			return done != nil && done()
		}
		if ev.at.After(horizon) {
			ev.done = false
			heap.Push(&s.pq, ev)
			s.mu.Unlock()
			return false
		}
		s.now = ev.at
		s.mu.Unlock()
		ev.fn()
	}
}

// simulator is what the schedule property drives on both clocks.
type simulator interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) Timer
	Len() int
	Step() bool
	RunUntil(deadline time.Time)
	Run(done func() bool, horizon time.Time) bool
}

// playSchedule runs the random schedule seed draws on c and returns its
// transcript: every callback with the instant it ran at, every Stop, Len
// and Run result, and every driver's finishing instant.
// Callbacks arm, stop and reset timers themselves (their own included)
// until the schedule's firing budget is spent, so every drive ends.
func playSchedule(seed int64, c simulator) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	var timers []Timer
	fired := 0
	delay := func() time.Duration {
		// Whole seconds and a few negatives: most instants are shared.
		return time.Duration(rng.Intn(8)-1) * time.Second
	}
	pick := func() Timer { return timers[rng.Intn(len(timers))] }
	var arm func()
	act := func() {
		switch op := rng.Intn(5); {
		case op == 0 || len(timers) == 0:
			arm()
		case op == 1:
			log = append(log, fmt.Sprint("stop ", pick().Stop()))
		case op == 2:
			pick().Reset(delay())
		}
	}
	arm = func() {
		id := len(timers)
		timers = append(timers, c.AfterFunc(delay(), func() {
			log = append(log, fmt.Sprintf("fire %d at %v", id, c.Now().Sub(SimEpoch)))
			if fired++; fired < 150 {
				act()
				if rng.Intn(3) == 0 {
					timers[id].Reset(delay())
				}
			}
		}))
	}
	for range 40 {
		switch rng.Intn(7) {
		case 0, 1:
			arm()
		case 2:
			act()
		case 3:
			log = append(log, fmt.Sprint("step ", c.Step()))
		case 4:
			c.RunUntil(c.Now().Add(delay()))
		case 5:
			target := len(log) + rng.Intn(6)
			done := c.Run(func() bool { return len(log) >= target }, c.Now().Add(delay()))
			log = append(log, fmt.Sprint("run ", done))
		case 6:
			log = append(log, fmt.Sprint("len ", c.Len()))
		}
		log = append(log, fmt.Sprint("now ", c.Now().Sub(SimEpoch)))
	}
	for c.Step() {
	}
	return append(log, fmt.Sprint("drained at ", c.Now().Sub(SimEpoch), " len ", c.Len()))
}

// TestSimScheduleProperty: on random schedules of AfterFunc, Stop, Reset,
// Step, RunUntil and Run, from the driver and from inside callbacks, Sim
// runs the same callbacks at the same instants in the same order as the
// lazy-stop reference, and every Stop, Len and Run agrees.
func TestSimScheduleProperty(t *testing.T) {
	for seed := range int64(300) {
		got := playSchedule(seed, NewSim())
		want := playSchedule(seed, &lazySim{now: SimEpoch})
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("seed %d: transcripts part at entry %d of %d/%d:\n  sim:       %s\n  reference: %s",
				seed, i, len(got), len(want), at(got, i), at(want, i))
		}
	}
}

func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<end>"
}

// TestSimStopResetConcurrent: other goroutines stop and reset timers, and
// stop a Periodic, while the driver steps. Virtual time never runs
// backwards, the heap stays a heap with every index current, a Periodic
// ticks at most once after its stop returns (a tick already popped), and
// once every timer is stopped nothing is pending.
func TestSimStopResetConcurrent(t *testing.T) {
	s := NewSim()
	var mu sync.Mutex
	var last time.Time
	backwards := 0
	observe := func() {
		now := s.Now()
		mu.Lock()
		defer mu.Unlock()
		if now.Before(last) {
			backwards++
		}
		last = now
	}
	timers := make([]Timer, 64)
	for i := range timers {
		timers[i] = s.AfterFunc(time.Duration(i%8)*time.Second, observe)
	}
	var ticks, ticksAfterStop int
	stopped := false
	stopPeriodic := Periodic(s, time.Second, func() {
		mu.Lock()
		defer mu.Unlock()
		ticks++
		if stopped {
			ticksAfterStop++
		}
	})
	s.RunUntil(SimEpoch.Add(5 * time.Second))

	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := range 2000 {
				tm := timers[rng.Intn(len(timers))]
				if rng.Intn(2) == 0 {
					tm.Stop()
				} else {
					tm.Reset(time.Duration(rng.Intn(4)) * time.Second)
				}
				if w == 0 && i == 1000 {
					stopPeriodic()
					mu.Lock()
					stopped = true
					mu.Unlock()
				}
			}
		}()
	}
	driving := make(chan struct{})
	go func() {
		defer close(driving)
		for range 20000 {
			if !s.Step() {
				s.RunUntil(s.Now().Add(time.Second))
			}
		}
	}()
	wg.Wait()
	<-driving

	s.mu.Lock()
	for i, ev := range s.pq {
		if ev.pos != i+1 {
			t.Errorf("event at heap position %d records position %d", i, ev.pos-1)
		}
		if i > 0 && s.pq.Less(i, (i-1)/2) {
			t.Errorf("heap position %d is earlier than its parent", i)
		}
	}
	s.mu.Unlock()
	if backwards > 0 {
		t.Errorf("virtual time ran backwards %d times", backwards)
	}
	if ticks < 5 || ticksAfterStop > 1 {
		t.Errorf("periodic ticked %d times, %d after its stop returned; want ≥ 5 and ≤ 1", ticks, ticksAfterStop)
	}
	for _, tm := range timers {
		tm.Stop()
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("Len() = %d with every timer stopped, want 0", n)
	}
	if s.Step() {
		t.Fatal("Step ran an event with every timer stopped")
	}
}
