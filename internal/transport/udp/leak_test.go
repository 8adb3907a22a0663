package udp

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/membership"
)

// waitGoroutines polls until the live goroutine count drops back to at most
// want, tolerating the runtime's own background workers settling.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // flush finalizer goroutines so the count settles
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d live, want ≤ %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTransportCloseLeavesNoGoroutines attaches a fleet of endpoints (one
// read-loop goroutine each), pushes traffic through them, and demands the
// transport-level Close tear every goroutine down.
func TestTransportCloseLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	peers := make(map[string]string)
	for i := 0; i < 8; i++ {
		peers[fmt.Sprintf("0.%d", i)] = "127.0.0.1:0"
	}
	res, err := NewStaticResolver(peers)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{Resolver: res})
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*endpoint, 0, 8)
	for i := 0; i < 8; i++ {
		ep, err := tr.Attach(addr.New(0, i))
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ep.(*endpoint))
	}
	for _, ep := range eps {
		if err := ep.Send(addr.New(0, 0), membership.Heartbeat{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
	// Every inbox must be closed, not merely drained.
	for _, ep := range eps {
		for range ep.Recv() {
		}
	}
}

// TestEndpointCloseLeavesNoGoroutine covers the per-endpoint Close path: a
// single detach must stop its read loop without touching its siblings.
func TestEndpointCloseLeavesNoGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	a, b, tr := pair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline+1) // b's read loop is still legitimately alive
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}
