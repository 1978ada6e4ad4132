package clock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSimNowStartsAtEpoch(t *testing.T) {
	s := NewSim()
	if got := s.Now(); !got.Equal(SimEpoch) {
		t.Fatalf("Now() = %v, want %v", got, SimEpoch)
	}
}

func TestSimAfterFuncOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.AfterFunc(3*time.Second, func() { order = append(order, 3) })
	s.AfterFunc(1*time.Second, func() { order = append(order, 1) })
	s.AfterFunc(2*time.Second, func() { order = append(order, 2) })
	for s.Step() {
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimSameTimestampFIFO(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.AfterFunc(time.Second, func() { order = append(order, i) })
	}
	for s.Step() {
	}
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-timestamp events out of FIFO order: %v", order)
		}
	}
}

func TestSimAdvanceSetsTimeExactly(t *testing.T) {
	s := NewSim()
	fired := false
	s.AfterFunc(500*time.Millisecond, func() { fired = true })
	s.Advance(2 * time.Second)
	if !fired {
		t.Fatal("event within Advance window did not fire")
	}
	if got := s.Since(SimEpoch); got != 2*time.Second {
		t.Fatalf("Since(epoch) = %v, want 2s", got)
	}
}

func TestSimTimerStop(t *testing.T) {
	s := NewSim()
	fired := false
	tm := s.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop() = false, want true")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	s.Advance(5 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestSimNegativeDelayFiresImmediately(t *testing.T) {
	s := NewSim()
	fired := false
	s.AfterFunc(-time.Second, func() { fired = true })
	if !s.Step() || !fired {
		t.Fatal("negative-delay event did not fire on first Step")
	}
	if got := s.Now(); !got.Equal(SimEpoch) {
		t.Fatalf("time moved backwards or forwards: %v", got)
	}
}

func TestSimRunStopsOnDone(t *testing.T) {
	s := NewSim()
	count := 0
	var tick func()
	tick = func() {
		count++
		s.AfterFunc(time.Second, tick)
	}
	s.AfterFunc(time.Second, tick)
	ok := s.Run(func() bool { return count >= 5 }, SimEpoch.Add(time.Hour))
	if !ok {
		t.Fatal("Run reported done=false")
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestSimRunStopsAtHorizon(t *testing.T) {
	s := NewSim()
	count := 0
	var tick func()
	tick = func() {
		count++
		s.AfterFunc(time.Minute, tick)
	}
	s.AfterFunc(time.Minute, tick)
	ok := s.Run(func() bool { return false }, SimEpoch.Add(10*time.Minute))
	if ok {
		t.Fatal("Run reported done=true at horizon")
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10 ticks before horizon", count)
	}
}

func TestSimAfterChannel(t *testing.T) {
	s := NewSim()
	ch := s.After(time.Second)
	go s.RunUntil(SimEpoch.Add(2 * time.Second))
	at := <-ch
	if want := SimEpoch.Add(time.Second); !at.Equal(want) {
		t.Fatalf("After fired at %v, want %v", at, want)
	}
}

func TestSimSleepBlocksUntilAdvance(t *testing.T) {
	s := NewSim()
	var wg sync.WaitGroup
	wg.Add(1)
	var woke time.Time
	go func() {
		defer wg.Done()
		s.Sleep(3 * time.Second)
		woke = s.Now()
	}()
	// Drive the simulation until the sleeper's event exists and fires.
	deadline := time.Now().Add(5 * time.Second)
	for s.Len() == 0 && time.Now().Before(deadline) {
	}
	s.Advance(3 * time.Second)
	wg.Wait()
	if woke.Before(SimEpoch.Add(3 * time.Second)) {
		t.Fatalf("sleeper woke at %v, want >= %v", woke, SimEpoch.Add(3*time.Second))
	}
}

func TestPeriodicTicksAndStops(t *testing.T) {
	s := NewSim()
	count := 0
	stop := Periodic(s, 10*time.Second, func() { count++ })
	s.Advance(35 * time.Second)
	if count != 3 {
		t.Fatalf("count = %d after 35s of 10s period, want 3", count)
	}
	stop()
	s.Advance(time.Hour)
	if count != 3 {
		t.Fatalf("periodic fired after stop: count = %d", count)
	}
}

func TestPeriodicPanicsOnNonPositiveInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Periodic(0) did not panic")
		}
	}()
	Periodic(NewSim(), 0, func() {})
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing timestamp order.
func TestSimEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewSim()
		var fired []time.Time
		for _, d := range delays {
			s.AfterFunc(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, s.Now())
			})
		}
		for s.Step() {
		}
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].Before(fired[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPeriodicTickAllocatesOnlyItsTimer: re-arming costs the simulated
// timer's one event and nothing else — a method value made per re-arm
// would be a second allocation on every tick of every scrape, pass and
// sweep.
func TestPeriodicTickAllocatesOnlyItsTimer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	clk := NewSim()
	ticks := 0
	stop := Periodic(clk, time.Second, func() { ticks++ })
	defer stop()
	if got := testing.AllocsPerRun(100, func() { clk.Advance(time.Second) }); got != 1 {
		t.Fatalf("a periodic tick allocates %v times, want 1 (the timer event)", got)
	}
	if ticks != 101 {
		t.Fatalf("ticks = %d, want 101", ticks)
	}
}
