package clock

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualStartsAtEpoch(t *testing.T) {
	v := NewVirtual()
	if !v.Now().Equal(Epoch) {
		t.Fatalf("new virtual clock reads %v, want %v", v.Now(), Epoch)
	}
	custom := time.Date(2024, 6, 1, 12, 0, 0, 0, time.UTC)
	if got := NewVirtualAt(custom).Now(); !got.Equal(custom) {
		t.Fatalf("NewVirtualAt reads %v, want %v", got, custom)
	}
}

func TestAfterFuncRunsInTimeOrder(t *testing.T) {
	v := NewVirtual()
	var order []int
	v.AfterFunc(30*time.Millisecond, func() { order = append(order, 3) })
	v.AfterFunc(10*time.Millisecond, func() { order = append(order, 1) })
	v.AfterFunc(20*time.Millisecond, func() { order = append(order, 2) })
	if ran := v.Advance(25 * time.Millisecond); ran != 2 {
		t.Fatalf("Advance ran %d callbacks, want 2", ran)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("callbacks ran in order %v, want [1 2]", order)
	}
	if got, want := v.Now(), Epoch.Add(25*time.Millisecond); !got.Equal(want) {
		t.Fatalf("clock reads %v after Advance, want %v", got, want)
	}
	v.Advance(10 * time.Millisecond)
	if len(order) != 3 || order[2] != 3 {
		t.Fatalf("third callback not run: %v", order)
	}
}

func TestSameInstantRunsInScheduleOrder(t *testing.T) {
	v := NewVirtual()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		v.AfterFunc(time.Millisecond, func() { order = append(order, i) })
	}
	v.Advance(time.Millisecond)
	for i, got := range order {
		if got != i {
			t.Fatalf("same-instant callbacks ran in order %v, want ascending", order)
		}
	}
}

func TestCallbackSeesDueTimeAsNow(t *testing.T) {
	v := NewVirtual()
	var at time.Time
	v.AfterFunc(7*time.Millisecond, func() { at = v.Now() })
	v.Advance(time.Second)
	if want := Epoch.Add(7 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("callback observed now=%v, want %v", at, want)
	}
}

func TestCallbacksScheduleMoreWork(t *testing.T) {
	v := NewVirtual()
	var hops []time.Duration
	var hop func()
	hop = func() {
		hops = append(hops, v.Now().Sub(Epoch))
		if len(hops) < 3 {
			v.AfterFunc(10*time.Millisecond, hop)
		}
	}
	v.AfterFunc(10*time.Millisecond, hop)
	v.Advance(time.Second)
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(hops) != len(want) {
		t.Fatalf("chain ran %d times, want %d", len(hops), len(want))
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("hop %d at %v, want %v", i, hops[i], want[i])
		}
	}
}

func TestTimerStopCancels(t *testing.T) {
	v := NewVirtual()
	fired := false
	tm := v.AfterFunc(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	v.Advance(time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if v.Pending() != 0 {
		t.Fatalf("%d pending after stop and advance", v.Pending())
	}
}

func TestRunNextAdvancesOneInstant(t *testing.T) {
	v := NewVirtual()
	ran := make(map[time.Duration]int)
	mark := func() { ran[v.Now().Sub(Epoch)]++ }
	v.AfterFunc(5*time.Millisecond, mark)
	v.AfterFunc(5*time.Millisecond, mark)
	v.AfterFunc(9*time.Millisecond, mark)

	now, n := v.RunNext()
	if n != 2 || !now.Equal(Epoch.Add(5*time.Millisecond)) {
		t.Fatalf("first RunNext: now=%v ran=%d, want 5ms/2", now, n)
	}
	now, n = v.RunNext()
	if n != 1 || !now.Equal(Epoch.Add(9*time.Millisecond)) {
		t.Fatalf("second RunNext: now=%v ran=%d, want 9ms/1", now, n)
	}
	if _, n = v.RunNext(); n != 0 {
		t.Fatalf("empty RunNext ran %d", n)
	}
	if ran[5*time.Millisecond] != 2 || ran[9*time.Millisecond] != 1 {
		t.Fatalf("callback distribution %v", ran)
	}
}

func TestRunNextIncludesSameInstantReschedules(t *testing.T) {
	v := NewVirtual()
	var order []string
	v.AfterFunc(time.Millisecond, func() {
		order = append(order, "a")
		v.AfterFunc(0, func() { order = append(order, "a-child") })
	})
	v.AfterFunc(time.Millisecond, func() { order = append(order, "b") })
	_, n := v.RunNext()
	if n != 3 {
		t.Fatalf("RunNext ran %d callbacks, want 3 (incl. same-instant child)", n)
	}
	if order[0] != "a" || order[1] != "b" || order[2] != "a-child" {
		t.Fatalf("order %v, want [a b a-child]", order)
	}
}

func TestNextAtPeeks(t *testing.T) {
	v := NewVirtual()
	if _, ok := v.NextAt(); ok {
		t.Fatal("empty clock reports a next event")
	}
	tm := v.AfterFunc(42*time.Millisecond, func() {})
	at, ok := v.NextAt()
	if !ok || !at.Equal(Epoch.Add(42*time.Millisecond)) {
		t.Fatalf("NextAt = %v/%v", at, ok)
	}
	tm.Stop()
	if _, ok := v.NextAt(); ok {
		t.Fatal("stopped timer still reported by NextAt")
	}
}

func TestVirtualTickerTicksAndCoalesces(t *testing.T) {
	v := NewVirtual()
	tk := v.NewTicker(10 * time.Millisecond)
	defer tk.Stop()
	// Three intervals with nobody reading: ticks coalesce to one.
	v.Advance(30 * time.Millisecond)
	select {
	case at := <-tk.C():
		if !at.Equal(Epoch.Add(10 * time.Millisecond)) {
			t.Fatalf("first tick at %v", at)
		}
	default:
		t.Fatal("no tick after three intervals")
	}
	select {
	case at := <-tk.C():
		t.Fatalf("uncoalesced extra tick at %v", at)
	default:
	}
	// Reading keeps up: next advance produces the next tick.
	v.Advance(10 * time.Millisecond)
	select {
	case at := <-tk.C():
		if !at.Equal(Epoch.Add(40 * time.Millisecond)) {
			t.Fatalf("tick at %v, want 40ms", at)
		}
	default:
		t.Fatal("no tick after another interval")
	}
}

func TestVirtualTickerStop(t *testing.T) {
	v := NewVirtual()
	tk := v.NewTicker(time.Millisecond)
	tk.Stop()
	v.Advance(10 * time.Millisecond)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker ticked")
	default:
	}
	if v.Pending() != 0 {
		t.Fatalf("%d callbacks pending after ticker stop", v.Pending())
	}
}

// TestVirtualTickerStopRacesAdvance stops a ticker while another goroutine
// advances the clock through its ticks and drains them: once Stop has
// returned, at most the one tick whose send was already under way arrives,
// and nothing stays scheduled. Under -race it also checks that Stop and the
// tick callback share one lock.
func TestVirtualTickerStopRacesAdvance(t *testing.T) {
	const interval = time.Millisecond
	v := NewVirtual()
	tk := v.NewTicker(interval)
	var stopped atomic.Bool
	early, late := 0, 0 // ticks received before and after Stop returned
	drain := func() {
		for {
			select {
			case <-tk.C():
				if stopped.Load() {
					late++
				} else {
					early++
				}
			default:
				return
			}
		}
	}
	halfway := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			if i == 1000 {
				close(halfway)
			}
			v.Advance(interval)
			drain()
		}
	}()
	<-halfway
	tk.Stop()
	stopped.Store(true)
	<-done
	for i := 0; i < 100; i++ {
		v.Advance(interval)
		drain()
	}
	if early < 1000 {
		t.Fatalf("%d ticks before Stop, want at least 1000", early)
	}
	if late > 1 {
		t.Fatalf("%d ticks after Stop returned, want at most 1", late)
	}
	if p := v.Pending(); p != 0 {
		t.Fatalf("%d callbacks pending after ticker stop", p)
	}
}

func TestRealClockSmoke(t *testing.T) {
	var c Clock = Real{}
	if d := time.Since(c.Now()); d < 0 || d > time.Minute {
		t.Fatalf("real Now drifted: %v", d)
	}
	fired := make(chan struct{})
	tm := c.AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("real AfterFunc never fired")
	}
	if tm.Stop() {
		t.Fatal("Stop after firing returned true")
	}
	tk := c.NewTicker(time.Millisecond)
	defer tk.Stop()
	select {
	case <-tk.C():
	case <-time.After(5 * time.Second):
		t.Fatal("real ticker never ticked")
	}
}
