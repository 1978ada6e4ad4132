package clock

import (
	"fmt"
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
	if got := s.Now().Sub(SimEpoch); got != 2*time.Second {
		t.Fatalf("Now() - epoch = %v, want 2s", got)
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
	if n := s.Len(); n != 0 {
		t.Fatalf("Len() = %d with only a stopped timer, want 0", n)
	}
	s.Advance(5 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
	tm = s.AfterFunc(time.Second, func() { fired = true })
	s.Advance(time.Second)
	if !fired {
		t.Fatal("timer did not fire")
	}
	if tm.Stop() {
		t.Fatal("Stop() after the callback fired = true, want false")
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

	// Stopped from inside its own callback, it is not re-armed.
	self := 0
	var stopSelf func()
	stopSelf = Periodic(s, 10*time.Second, func() {
		if self++; self == 2 {
			stopSelf()
		}
	})
	s.Advance(time.Hour)
	if self != 2 {
		t.Fatalf("periodic stopped on its 2nd tick ticked %d times", self)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("Len() = %d after both periodics stopped, want 0", n)
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

// TestPeriodicTickAllocatesNothing: a periodic task is one timer that
// each tick re-arms in place, so a tick of a scrape, pass or sweep
// allocates nothing in the clock.
func TestPeriodicTickAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	clk := NewSim()
	ticks := 0
	stop := Periodic(clk, time.Second, func() { ticks++ })
	defer stop()
	if got := testing.AllocsPerRun(100, func() { clk.Advance(time.Second) }); got != 0 {
		t.Fatalf("a periodic tick allocates %v times, want 0", got)
	}
	if ticks != 101 {
		t.Fatalf("ticks = %d, want 101", ticks)
	}
}

// owned is a record that keeps its own timer, as a kubelet's admission
// entry or a workload's execution does; firing logs its name.
type owned struct {
	Event
	name string
	log  *[]string
}

func (o *owned) Fire() { *o.log = append(*o.log, o.name) }

// TestArmOwnedEventAllocatesNothing: arming, resetting, stopping and
// firing an Event its caller keeps allocate nothing in the clock.
func TestArmOwnedEventAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	clk := NewSim()
	log := make([]string, 0, 128)
	o := &owned{name: "o", log: &log}
	got := testing.AllocsPerRun(100, func() {
		clk.Arm(&o.Event, time.Second, o)
		o.Reset(2 * time.Second)
		if !o.Stop() {
			t.Fatal("Stop of a pending Event reports it idle")
		}
		clk.Arm(&o.Event, time.Second, o)
		clk.Advance(time.Second)
	})
	if got != 0 {
		t.Fatalf("a caller-owned Event's arm, Reset, Stop and firing allocate %v times, want 0", got)
	}
	if len(log) != 101 || clk.Len() != 0 {
		t.Fatalf("fired %d times with %d pending, want 101 and 0", len(log), clk.Len())
	}
}

// TestArmTakesAfterFuncsPlace: at one instant, Events armed with Arm and
// timers from AfterFunc fire in the order they were armed, and an Event
// armed again while pending moves behind both.
func TestArmTakesAfterFuncsPlace(t *testing.T) {
	clk := NewSim()
	var log []string
	a, b := &owned{name: "a", log: &log}, &owned{name: "b", log: &log}
	clk.Arm(&a.Event, time.Second, a)
	clk.AfterFunc(time.Second, func() { log = append(log, "f") })
	clk.Arm(&b.Event, time.Second, b)
	clk.Arm(&a.Event, time.Second, a)
	clk.Advance(time.Second)
	if got, want := fmt.Sprint(log), "[f b a]"; got != want {
		t.Fatalf("same-instant order %s, want %s", got, want)
	}
}
