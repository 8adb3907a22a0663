package transport

import (
	"runtime"
	"testing"

	"pmcast/internal/addr"
)

// liveHeap is the heap in use after two collections.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestIdleInboxHoldsNoBound: an inbox holds storage for what it carries,
// not for its bound. 256 endpoints attached at QueueLen 4 096 grow the heap
// by a few hundred bytes each (a channel of the bound was 128 KiB), and
// after each has received and drained an envelope it keeps one spare
// segment, 2 KiB.
func TestIdleInboxHoldsNoBound(t *testing.T) {
	const endpoints, perEndpoint = 256, 8 << 10
	net := MustNetwork(Config{QueueLen: 4096})
	defer net.Close()
	before := liveHeap()
	eps := make([]Endpoint, endpoints)
	for i := range eps {
		ep, err := net.Attach(addr.New(0, i))
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	grown := (liveHeap() - before) / endpoints
	t.Logf("an idle endpoint grew the heap by %d bytes", grown)
	if grown > perEndpoint {
		t.Errorf("an idle endpoint grew the heap by %d bytes, want at most %d", grown, perEndpoint)
	}
	out := make([]Envelope, 4)
	for i, ep := range eps {
		if err := eps[(i+1)%endpoints].Send(ep.Addr(), i); err != nil {
			t.Fatal(err)
		}
		if k, _ := ep.Inbox().Drain(out); k != 1 || out[0].Payload != i {
			t.Fatalf("endpoint %d drained %d envelopes: %v", i, k, out[:k])
		}
	}
	clear(out)
	grown = (liveHeap() - before) / endpoints
	t.Logf("a drained endpoint grew the heap by %d bytes", grown)
	if grown > perEndpoint {
		t.Errorf("a drained endpoint grew the heap by %d bytes, want at most %d", grown, perEndpoint)
	}
	runtime.KeepAlive(eps)
}

// TestRecvViewIsTheInbox pins Endpoint.Recv, the inbox's channel view: what
// was queued before the first call comes out first, in order; the bound
// still holds, with the overflow counted as dropped; len is the inbox depth;
// the inbox drains through the view and through Drain alike; and detaching
// the endpoint closes the channel once it is drained.
func TestRecvViewIsTheInbox(t *testing.T) {
	const bound = 150
	net := MustNetwork(Config{QueueLen: bound})
	a, _ := net.Attach(addr.New(0, 0))
	b, _ := net.Attach(addr.New(0, 1))
	send := func(from, to int) {
		for i := from; i < to; i++ {
			if err := a.Send(b.Addr(), i); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(0, 100) // two segments and a half
	view := b.Recv()
	if len(view) != 100 || cap(view) != bound {
		t.Fatalf("the view of 100 queued envelopes has len %d, cap %d", len(view), cap(view))
	}
	send(100, 220)
	if len(view) != bound || net.Dropped() != 220-bound {
		t.Fatalf("after 220 sends at bound %d: depth %d, %d dropped", bound, len(view), net.Dropped())
	}
	for i := 0; i < 140; i++ {
		if env := <-view; env.Payload != i {
			t.Fatalf("envelope %d came out of the view as %v", i, env.Payload)
		}
	}
	out := make([]Envelope, 64)
	if k, open := b.Inbox().Drain(out); k != 10 || !open || out[0].Payload != 140 || out[9].Payload != 149 {
		t.Fatalf("Drain beside the view took %d (open %v): %v", k, open, out[:k])
	}
	send(300, 302)
	if len(view) != 2 {
		t.Fatalf("depth %d after two more sends, want 2", len(view))
	}
	net.Detach(b.Addr())
	for _, want := range []int{300, 301} {
		if env, ok := <-view; !ok || env.Payload != want {
			t.Fatalf("after detach the view gave %v (open %v), want %d", env.Payload, ok, want)
		}
	}
	if _, ok := <-view; ok {
		t.Fatal("the view of a detached, drained endpoint is still open")
	}
}
