// Package clock abstracts time so that the whole orchestrator stack runs
// against a deterministic discrete-event simulation (experiments, tests,
// benchmarks); a wall-clock Clock would satisfy the same interface.
//
// The paper's evaluation replays multi-hour Google Borg trace slices
// (§VI-B); running them on Sim compresses hours of virtual time into
// milliseconds of wall time while preserving event ordering exactly.
// A component reads the time with Now and schedules work with AfterFunc
// or Arm; periodic work is one re-armed timer (see Periodic).
package clock

import (
	"sync"
	"time"
)

// Clock is the time source used by every component in the stack.
//
// Components must never call the time package directly for scheduling
// decisions; they receive a Clock at construction time.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// AfterFunc schedules f to run once d has elapsed. It returns a Timer
	// that cancels or re-arms the call.
	//
	// On Sim, f runs synchronously on the goroutine driving the
	// simulation, which makes chains of AfterFunc callbacks fully
	// deterministic. It is Arm on a fresh Event.
	AfterFunc(d time.Duration, f func()) Timer
	// Arm is AfterFunc for h.Fire on ev, an Event its caller keeps, so
	// that arming allocates nothing; arming a pending ev re-arms it.
	Arm(ev *Event, d time.Duration, h Handler)
}

// Handler is what an armed Event runs when it fires.
type Handler interface{ Fire() }

// funcHandler is AfterFunc's Handler; converting a func allocates nothing.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// Timer is a pending callback that its owner can cancel or re-arm.
type Timer interface {
	// Stop cancels the timer. It reports whether the timer was still
	// pending (and is now cancelled); it is false once the callback has
	// fired or the timer was already stopped.
	Stop() bool
	// Reset re-arms the timer to run its callback once d has elapsed,
	// whether it is pending, has fired or was stopped; on Sim it then
	// fires after every call already scheduled for that instant, exactly
	// as a new AfterFunc would.
	Reset(d time.Duration)
}

// Periodic runs f every interval until the returned stop function is
// called. The first invocation happens after one interval, not
// immediately. f runs on the clock's callback goroutine; it must not block
// for long. It is one timer, re-armed after each f returns.
func Periodic(c Clock, interval time.Duration, f func()) (stop func()) {
	if interval <= 0 {
		panic("clock: Periodic interval must be positive")
	}
	p := &periodic{interval: interval, f: f}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.timer = c.AfterFunc(interval, p.tick)
	return p.stop
}

type periodic struct {
	interval time.Duration
	f        func()

	mu      sync.Mutex
	timer   Timer
	stopped bool
}

func (p *periodic) tick() {
	p.f()
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.stopped {
		p.timer.Reset(p.interval)
	}
}

func (p *periodic) stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
	p.timer.Stop()
}
