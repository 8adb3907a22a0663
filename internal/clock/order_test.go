package clock

import (
	"testing"
	"time"
)

// modelTimer is the reference's view of one scheduled callback.
type modelTimer struct {
	id     int
	whenNs int64 // since Epoch
	seq    int
	tag    int32
	tm     Timer
	live   bool
}

// maxOrderOps and maxOrderTimers bound what one FuzzVirtualClockOrder input
// runs and schedules.
const (
	maxOrderOps    = 1024
	maxOrderTimers = 4096
)

// FuzzVirtualClockOrder drives byte-chosen AfterFunc and ScheduleTagged
// calls (delays of a few nanoseconds, so ties abound, and instants in the
// past), Stop waves that leave many stopped entries in the heap, and
// interleaved PopDue, RunNext and AdvanceTo calls through a Virtual clock,
// and demands that every popped or run (when, seq, tag) be the minimum of
// the live set a plain list holds, and that Pending stay exact.
//
// The reference scans its whole list per pop and per op, so an input is
// bounded: it runs at most maxOrderOps ops and schedules at most
// maxOrderTimers timers (a burst stops at the cap). Uncapped, a mutated
// 15 KB input scheduled about 1.6 M timers and ran past the fuzzer's hang
// limit.
func FuzzVirtualClockOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 1, 2, 7, 3, 9, 4, 5, 2})
	f.Add([]byte{2, 200, 3, 1, 0, 0, 3, 7, 4, 5, 9})
	f.Add([]byte{2, 150, 2, 150, 3, 2, 1, 0, 3, 4, 4, 2, 3, 5, 1, 4, 0})
	f.Add([]byte{6, 100, 3, 3, 6, 90, 3, 1, 4, 4, 5, 0, 5, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := NewVirtual()
		var all []*modelTimer
		var fired []int // ids in the order the clock ran or popped them
		seq := 0
		byteAt := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		nowNs := func() int64 { return int64(v.Now().Sub(Epoch)) }
		schedule := func(delay int64, tagged bool, tag int32) {
			if len(all) == maxOrderTimers {
				return
			}
			m := &modelTimer{id: len(all), seq: seq, live: true}
			seq++
			id := m.id
			fn := func() { fired = append(fired, id) }
			if tagged {
				at := v.Now().Add(time.Duration(delay))
				m.whenNs = max(nowNs(), nowNs()+delay)
				m.tag = tag
				m.tm = v.ScheduleTagged(at, tag, fn)
			} else {
				m.whenNs = nowNs() + max(delay, 0)
				m.tm = v.AfterFunc(time.Duration(delay), fn)
			}
			all = append(all, m)
		}
		// earliest returns the live model timer the clock must pop next.
		earliest := func() *modelTimer {
			var best *modelTimer
			for _, m := range all {
				if m.live && (best == nil || m.whenNs < best.whenNs ||
					m.whenNs == best.whenNs && m.seq < best.seq) {
					best = m
				}
			}
			return best
		}
		// expectRun checks that the clock ran exactly the due set up to
		// untilNs, in (when, seq) order, since fired was last consumed.
		expectRun := func(op string, untilNs int64, onlyAt bool) {
			for _, id := range fired {
				want := earliest()
				if want == nil || want.id != id {
					t.Fatalf("%s ran timer %d, reference minimum is %+v", op, id, want)
				}
				if want.whenNs > untilNs {
					t.Fatalf("%s ran timer %d due %d past %d", op, id, want.whenNs, untilNs)
				}
				want.live = false
			}
			fired = fired[:0]
			if m := earliest(); m != nil && (m.whenNs <= untilNs && !onlyAt || onlyAt && m.whenNs == untilNs) {
				t.Fatalf("%s left due timer %d (due %d, until %d)", op, m.id, m.whenNs, untilNs)
			}
		}
		for i := 0; i < len(data) && i < 2*maxOrderOps; i += 2 {
			arg := byteAt(i + 1)
			switch data[i] % 7 {
			case 0: // one timer, a few nanoseconds out
				schedule(int64(arg%4), false, 0)
			case 1: // one tagged timer, maybe in the past
				schedule(int64(arg%6)-2, true, int32(arg%5)-1)
			case 2: // a burst with many ties
				for k := 0; k < arg && len(all) < maxOrderTimers; k++ {
					schedule(int64((k*7+arg)%5), k%3 == 0, int32(k%4))
				}
			case 3: // a Stop wave over a residue class, plus stale Stops
				mod := arg%4 + 1
				for _, m := range all {
					if m.id%mod != arg%mod {
						continue
					}
					if got := m.tm.Stop(); got != m.live {
						t.Fatalf("Stop(timer %d) = %v, live %v", m.id, got, m.live)
					}
					m.live = false
				}
			case 4: // PopDue up to a few nanoseconds ahead
				untilNs := nowNs() + int64(arg%3)
				for {
					when, tag, fn, ok := v.PopDue(Epoch.Add(time.Duration(untilNs)))
					want := earliest()
					if !ok {
						if want != nil && want.whenNs <= untilNs {
							t.Fatalf("PopDue found nothing, timer %d due %d ≤ %d", want.id, want.whenNs, untilNs)
						}
						break
					}
					fn()
					if want == nil || fired[0] != want.id {
						t.Fatalf("PopDue returned timer %d, reference minimum is %+v", fired[0], want)
					}
					if got := int64(when.Sub(Epoch)); got != want.whenNs || tag != want.tag {
						t.Fatalf("PopDue timer %d: (when %d, tag %d), want (%d, %d)", want.id, got, tag, want.whenNs, want.tag)
					}
					want.live = false
					fired = fired[:0]
					if arg%2 == 1 {
						break // leave the rest for a later call
					}
				}
			case 5: // RunNext
				next := earliest()
				at, ran := v.RunNext()
				if next == nil {
					if ran != 0 {
						t.Fatalf("RunNext ran %d on an empty queue", ran)
					}
					break
				}
				if got := int64(at.Sub(Epoch)); got != next.whenNs {
					t.Fatalf("RunNext moved to %d, want %d", got, next.whenNs)
				}
				if ran != len(fired) {
					t.Fatalf("RunNext reported %d runs, %d callbacks ran", ran, len(fired))
				}
				expectRun("RunNext", next.whenNs, true)
			case 6: // AdvanceTo
				untilNs := nowNs() + int64(arg%4)
				ran := v.AdvanceTo(Epoch.Add(time.Duration(untilNs)))
				if ran != len(fired) {
					t.Fatalf("AdvanceTo reported %d runs, %d callbacks ran", ran, len(fired))
				}
				expectRun("AdvanceTo", untilNs, false)
				if got := nowNs(); got != untilNs {
					t.Fatalf("AdvanceTo left the clock at %d, want %d", got, untilNs)
				}
			}
			live := 0
			for _, m := range all {
				if m.live {
					live++
				}
			}
			if got := v.Pending(); got != live {
				t.Fatalf("op %d: Pending() = %d, reference holds %d", i/2, got, live)
			}
		}
		// Drain: whatever is left pops in reference order.
		v.AdvanceTo(Epoch.Add(time.Hour))
		expectRun("final AdvanceTo", int64(time.Hour), false)
		if p := v.Pending(); p != 0 {
			t.Fatalf("%d timers pending after the drain", p)
		}
	})
}
