package transport

import (
	"testing"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/clock"
)

// heldDelivery is one delivery an OwnedScheduler was handed.
type heldDelivery struct {
	owner addr.Address
	d     time.Duration
	f     func()
}

// recordingScheduler is an OwnedScheduler whose time stands still and which
// keeps every delivery it is handed, to run when the test says.
type recordingScheduler struct {
	now  time.Time
	held []heldDelivery
}

func (s *recordingScheduler) Now() time.Time { return s.now }

func (s *recordingScheduler) AfterFuncOwned(owner addr.Address, d time.Duration, f func()) {
	s.held = append(s.held, heldDelivery{owner, d, f})
}

func (s *recordingScheduler) HandedOff(addr.Address) {}

// TestOwnedSchedulerOwnsItsDeliveries pins the owned-scheduler contract: a
// delayed send reaches the sender's scheduler with its destination as owner
// and its delay clamped to the link's FIFO floor; the fabric tracks none of
// it, so Close leaves the held callbacks alone, and one run after Close
// delivers nothing and counts each sub-message dropped.
func TestOwnedSchedulerOwnsItsDeliveries(t *testing.T) {
	vc := clock.NewVirtual()
	net := MustNetwork(Config{MinDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: 3, Clock: vc})
	a, _ := net.Attach(addr.New(1))
	b, _ := net.Attach(addr.New(2))
	c, _ := net.Attach(addr.New(3))
	rec := &recordingScheduler{now: vc.Now()}
	net.SetEndpointClock(a.Addr(), rec)

	// Fresh streams of the same seed replay each link's raw delay draws;
	// with the sender's time standing still, a send's delay is the largest
	// draw on its link so far.
	raw := &linkTable{from: a.Addr().Key(), to: make(map[string]*linkState)}
	floor := make(map[string]time.Duration)
	var subs []int // sub-messages per send
	clamped := 0
	for i := 0; i < 16; i++ {
		to := []addr.Address{b.Addr(), c.Addr()}[i%2]
		var payload any = i
		if i%3 == 0 {
			payload = testBatch(2)
		}
		if err := a.Send(to, payload); err != nil {
			t.Fatal(err)
		}
		want := net.delay(&raw.state(net.seedMix, to.Key()).main)
		if f := floor[to.Key()]; f > want {
			want = f
			clamped++
		}
		floor[to.Key()] = want
		if len(rec.held) != i+1 {
			t.Fatalf("send %d: scheduler holds %d deliveries", i, len(rec.held))
		}
		if got := rec.held[i]; !got.owner.Equal(to) || got.d != want {
			t.Fatalf("send %d to %s: held for %s after %v, want after %v", i, to, got.owner, got.d, want)
		}
		subs = append(subs, parts(payload))
	}
	if clamped == 0 {
		t.Fatal("no send met its link's FIFO floor; the clamp went unchecked")
	}
	tracked := func() int {
		net.timersMu.Lock()
		defer net.timersMu.Unlock()
		return len(net.timers)
	}
	if n, p := tracked(), vc.Pending(); n != 0 || p != 0 {
		t.Fatalf("fabric tracks %d timers and its clock holds %d entries for owned deliveries", n, p)
	}

	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rec.held) != len(subs) || tracked() != 0 {
		t.Fatalf("after Close: scheduler holds %d of %d deliveries, fabric tracks %d", len(rec.held), len(subs), tracked())
	}
	for i, h := range rec.held {
		before := net.Dropped()
		h.f()
		if got := net.Dropped() - before; got != subs[i] {
			t.Errorf("delivery %d run after Close: dropped %d, want %d", i, got, subs[i])
		}
	}
	for _, ep := range []Endpoint{b, c} {
		if env, ok := <-ep.Recv(); ok {
			t.Errorf("%s received %v after Close", ep.Addr(), env)
		}
	}
}
