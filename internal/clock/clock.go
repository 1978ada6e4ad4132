// Package clock abstracts time so that the whole orchestrator stack can run
// either against the wall clock (production daemons) or against a
// deterministic discrete-event simulation (experiments, tests, benchmarks).
//
// The paper's evaluation replays multi-hour Google Borg trace slices
// (§VI-B); running them on SimClock compresses hours of virtual time into
// milliseconds of wall time while preserving event ordering exactly.
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
	// Since returns the elapsed duration between t and Now.
	Since(t time.Time) time.Duration
	// Sleep blocks the calling goroutine for d.
	//
	// On SimClock the caller resumes once virtual time has advanced past
	// d; some other goroutine must be driving the simulation.
	Sleep(d time.Duration)
	// After returns a channel that delivers the then-current time once d
	// has elapsed.
	After(d time.Duration) <-chan time.Time
	// AfterFunc schedules f to run once d has elapsed. It returns a Timer
	// whose Stop method cancels the call.
	//
	// On SimClock, f runs synchronously on the goroutine driving the
	// simulation, which makes chains of AfterFunc callbacks fully
	// deterministic. Periodic work throughout the orchestrator is built
	// from self-rescheduling AfterFunc calls (see Periodic).
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a cancellable pending callback or channel event.
type Timer interface {
	// Stop cancels the timer. It reports whether the timer was still
	// pending (and is now cancelled).
	Stop() bool
}

// Periodic runs f every interval until the returned stop function is
// called. The first invocation happens after one interval, not
// immediately. f runs on the clock's callback goroutine; it must not block
// for long.
func Periodic(c Clock, interval time.Duration, f func()) (stop func()) {
	if interval <= 0 {
		panic("clock: Periodic interval must be positive")
	}
	p := &periodic{c: c, interval: interval, f: f}
	p.fire = p.tick
	p.schedule()
	return p.stop
}

type periodic struct {
	c        Clock
	interval time.Duration
	f        func()
	fire     func() // p.tick, bound once: a method value per re-arm would allocate per tick

	mu      sync.Mutex
	timer   Timer
	stopped bool
}

func (p *periodic) schedule() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	p.timer = p.c.AfterFunc(p.interval, p.fire)
}

func (p *periodic) tick() {
	p.f()
	p.schedule()
}

func (p *periodic) stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
	if p.timer != nil {
		p.timer.Stop()
	}
}
