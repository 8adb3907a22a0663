package clock

import (
	"testing"
	"time"
)

// TestCompactionKeepsOrder verifies a stopped majority cannot reorder the
// survivors: stopped timers never fire, and the interleaved live population
// fires in exactly scheduled order as the dead entries are dropped off the
// heap top.
func TestCompactionKeepsOrder(t *testing.T) {
	v := NewVirtual()
	var got []int
	var doomed []Timer
	for i := 0; i < 2000; i++ {
		i := i
		if i%20 == 0 {
			v.AfterFunc(time.Duration(i+1)*time.Millisecond, func() { got = append(got, i) })
			continue
		}
		doomed = append(doomed, v.AfterFunc(time.Duration(i+1)*time.Millisecond, func() { t.Errorf("stopped timer %d fired", i) }))
	}
	for _, tm := range doomed {
		tm.Stop()
	}
	v.AdvanceTo(v.Now().Add(3 * time.Second))
	for j := 1; j < len(got); j++ {
		if got[j] <= got[j-1] {
			t.Fatalf("timers fired out of order: %d after %d", got[j], got[j-1])
		}
	}
	if len(got) != 100 {
		t.Fatalf("%d survivors fired, want 100", len(got))
	}
}
