package udp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/membership"
	"pmcast/internal/transport"
	"pmcast/internal/wire"
)

// sampleGossip builds a distinct, deterministic gossip per sequence number.
func sampleGossip(i int) core.Gossip {
	ev := event.NewBuilder().
		Int("seq", int64(i)).
		Str("topic", "parity").
		Build(event.ID{Origin: "0.0", Seq: uint64(i + 1)})
	return core.Gossip{Event: ev, Depth: 2, Rate: 0.5, Round: i % 5}
}

// oneGossip is the batch of sampleGossip(i) alone.
func oneGossip(i int) wire.Batch {
	return wire.Batch{Gossips: []core.Gossip{sampleGossip(i)}}
}

// batchedPair attaches two loopback endpoints under the given config
// overrides, with ephemeral ports and raw-frame delivery so tests can
// compare exact wire bytes.
func batchedPair(t *testing.T, mut func(*Config)) (transport.Endpoint, transport.Endpoint, *Transport) {
	t.Helper()
	res, err := NewStaticResolver(map[string]string{
		"0.0": "127.0.0.1:0",
		"0.1": "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Resolver: res, DeferDecode: true}
	if mut != nil {
		mut(&cfg)
	}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	a, err := tr.Attach(addr.MustParse("0.0"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Attach(addr.MustParse("0.1"))
	if err != nil {
		t.Fatal(err)
	}
	return a, b, tr
}

// parityTraffic is a SendMany workload exercising every egress shape:
// batches of one section, batches small enough for one datagram, and a fat
// batch that SplitBatch has to break across several datagrams.
func parityTraffic() []transport.Outgoing {
	to := addr.MustParse("0.1")
	var msgs []transport.Outgoing
	hb := membership.Heartbeat{}
	for i := 0; i < 40; i++ {
		msgs = append(msgs, transport.Outgoing{To: to, Payload: oneGossip(i)})
		if i%5 == 0 {
			msgs = append(msgs, transport.Outgoing{To: to, Payload: wire.Batch{Heartbeat: &hb}})
		}
		if i%7 == 0 {
			b := wire.Batch{Heartbeat: &hb}
			for j := 0; j < 12; j++ {
				b.Gossips = append(b.Gossips, sampleGossip(100*i+j))
			}
			msgs = append(msgs, transport.Outgoing{To: to, Payload: b})
		}
	}
	return msgs
}

// collectFrames drains n raw frames from the endpoint in delivery order.
func collectFrames(t *testing.T, ep transport.Endpoint, n int) [][]byte {
	t.Helper()
	frames := make([][]byte, 0, n)
	deadline := time.After(10 * time.Second)
	for len(frames) < n {
		select {
		case env, ok := <-ep.Recv():
			if !ok {
				t.Fatalf("recv closed after %d/%d frames", len(frames), n)
			}
			raw, ok := env.Payload.(transport.Raw)
			if !ok {
				t.Fatalf("expected raw frame, got %T", env.Payload)
			}
			cp := append([]byte(nil), raw.Frame...)
			raw.Release()
			frames = append(frames, cp)
		case <-deadline:
			t.Fatalf("timed out after %d/%d frames", len(frames), n)
		}
	}
	return frames
}

// frameCount is how many datagrams the workload encodes to — measured on
// the portable path, which shares appendFrames with the batched one.
func frameCount(t *testing.T, msgs []transport.Outgoing) int {
	t.Helper()
	res, err := NewStaticResolver(map[string]string{"0.0": "127.0.0.1:1", "0.1": "127.0.0.1:2"})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{Resolver: res})
	if err != nil {
		t.Fatal(err)
	}
	e := &endpoint{
		addr:      addr.MustParse("0.0"),
		tr:        tr,
		prefixLen: len(addr.AppendAddress(nil, addr.MustParse("0.0"))),
	}
	var frames []outFrame
	for _, m := range msgs {
		frames, err = e.appendFrames(frames, m.To, m.Payload)
		if err != nil {
			t.Fatal(err)
		}
	}
	n := len(frames)
	releaseFrames(frames)
	return n
}

// TestBatchedFallbackParity pins the tentpole's correctness claim: the
// kernel-batched path delivers byte-identical frames in the same per-link
// order as the single-syscall fallback. (On platforms without the batched
// path both runs use the fallback and the test degenerates to a self-check.)
func TestBatchedFallbackParity(t *testing.T) {
	msgs := parityTraffic()
	want := frameCount(t, msgs)

	run := func(mut func(*Config)) [][]byte {
		a, b, _ := batchedPair(t, mut)
		sender := a.(*endpoint)
		if err := sender.SendMany(msgs); err != nil {
			t.Fatal(err)
		}
		return collectFrames(t, b, want)
	}
	fallback := run(func(c *Config) { c.Portable = true })
	batched := run(nil)

	if len(fallback) != len(batched) {
		t.Fatalf("frame counts differ: fallback %d, batched %d", len(fallback), len(batched))
	}
	for i := range fallback {
		if string(fallback[i]) != string(batched[i]) {
			t.Fatalf("frame %d differs:\nfallback %x\nbatched  %x", i, fallback[i], batched[i])
		}
	}
}

// TestSendManyKeepsGoingPastFailures pins the seam's error contract: one
// unresolvable destination mid-queue must not stall the rest, and the first
// error surfaces after every message was attempted.
func TestSendManyKeepsGoingPastFailures(t *testing.T) {
	a, b, _ := batchedPair(t, nil)
	sender := a.(*endpoint)
	to := addr.MustParse("0.1")
	msgs := []transport.Outgoing{
		{To: to, Payload: oneGossip(1)},
		{To: addr.MustParse("0.2"), Payload: oneGossip(2)}, // not in the resolver
		{To: to, Payload: oneGossip(3)},
	}
	err := sender.SendMany(msgs)
	if !errors.Is(err, transport.ErrUnknownAddr) {
		t.Fatalf("want ErrUnknownAddr, got %v", err)
	}
	got := collectFrames(t, b, 2)
	if len(got) != 2 {
		t.Fatalf("want the 2 resolvable messages delivered, got %d", len(got))
	}
}

// TestRecvManyDrainsBursts pins the BatchReceiver contract: the first
// receive blocks, the rest of the call drains without blocking, and the
// endpoint's close surfaces as ok=false.
func TestRecvManyDrainsBursts(t *testing.T) {
	a, b, _ := batchedPair(t, nil)
	sender := a.(*endpoint)
	const total = 20
	msgs := make([]transport.Outgoing, 0, total)
	for i := 0; i < total; i++ {
		msgs = append(msgs, transport.Outgoing{To: addr.MustParse("0.1"), Payload: oneGossip(i)})
	}
	if err := sender.SendMany(msgs); err != nil {
		t.Fatal(err)
	}
	br := b.(transport.BatchReceiver)
	out := make([]transport.Envelope, 8)
	got := 0
	for got < total {
		n, ok := br.RecvMany(out)
		if !ok {
			t.Fatalf("endpoint reported closed after %d/%d", got, total)
		}
		if n < 1 || n > len(out) {
			t.Fatalf("RecvMany returned %d (out cap %d)", n, len(out))
		}
		for i := 0; i < n; i++ {
			if raw, ok := out[i].Payload.(transport.Raw); ok {
				raw.Release()
			}
		}
		got += n
	}
	b.Close()
	if n, ok := br.RecvMany(out); ok && n == 0 {
		t.Fatal("RecvMany on a closed drained endpoint must eventually report ok=false")
	}
}

// TestReRegisterMovesNextSend re-Registers a peer onto a new socket and
// asserts traffic follows: the very next send resolves the new mapping,
// never the old destination.
func TestReRegisterMovesNextSend(t *testing.T) {
	res, err := NewStaticResolver(map[string]string{
		"0.0": "127.0.0.1:0",
		"0.1": "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{Resolver: res})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	a, err := tr.Attach(addr.MustParse("0.0"))
	if err != nil {
		t.Fatal(err)
	}
	to := addr.MustParse("0.1")

	// First home: a plain socket standing in for the peer.
	oldConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer oldConn.Close()
	res.Register(to, oldConn.LocalAddr().(*net.UDPAddr))
	if err := a.Send(to, oneGossip(1)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 65536)
	oldConn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := oldConn.ReadFromUDP(buf); err != nil {
		t.Fatalf("datagram never reached the first socket: %v", err)
	}

	// The peer moves; the very next send must hit the new socket.
	newConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer newConn.Close()
	res.Register(to, newConn.LocalAddr().(*net.UDPAddr))
	if err := a.Send(to, oneGossip(2)); err != nil {
		t.Fatal(err)
	}
	newConn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := newConn.ReadFromUDP(buf); err != nil {
		t.Fatalf("post-Register datagram still went to the old socket: %v", err)
	}
}

// TestRegisterWhileSending races the peer table's writer against its
// readers: one goroutine keeps registering peers (and re-registering the
// receiver at its own socket) while others resolve and send. Under -race
// this holds the copy-and-swap; every resolve must see the receiver's one
// socket, and every address registered must resolve once the writer is done.
func TestRegisterWhileSending(t *testing.T) {
	a, b, tr := batchedPair(t, nil)
	res := tr.cfg.Resolver
	to := b.Addr()
	home, err := res.Resolve(to)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			res.Register(addr.New(1, i), &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 20000 + i})
			res.Register(to, home)
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if ua, err := res.Resolve(to); err != nil || ua != home {
					errs <- fmt.Errorf("resolve %s = %v, %v; want %v", to, ua, err, home)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		bs := a.(transport.BatchSender)
		for i := 0; i < rounds/10; i++ {
			if err := a.Send(to, oneGossip(i)); err != nil {
				errs <- err
				return
			}
			if err := bs.SendMany([]transport.Outgoing{{To: to, Payload: oneGossip(i)}}); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i := 0; i < rounds; i++ {
		if ua, err := res.Resolve(addr.New(1, i)); err != nil || ua.Port != 20000+i {
			t.Fatalf("registered peer 1.%d resolves to %v, %v", i, ua, err)
		}
	}
}

// TestStatsCountDatapath sanity-checks the new Stats surface: datagram and
// syscall counters move on both directions, and the satellite bugfix
// counters (Malformed/Dropped) are visible in the same snapshot.
func TestStatsCountDatapath(t *testing.T) {
	a, b, tr := batchedPair(t, nil)
	sender := a.(*endpoint)
	const total = 16
	msgs := make([]transport.Outgoing, 0, total)
	for i := 0; i < total; i++ {
		msgs = append(msgs, transport.Outgoing{To: addr.MustParse("0.1"), Payload: oneGossip(i)})
	}
	if err := sender.SendMany(msgs); err != nil {
		t.Fatal(err)
	}
	for _, f := range collectFrames(t, b, total) {
		_ = f
	}
	st := tr.Stats()
	if st.SentDatagrams < total {
		t.Fatalf("SentDatagrams = %d, want ≥ %d", st.SentDatagrams, total)
	}
	if st.SendSyscalls < 1 || st.SendSyscalls > st.SentDatagrams {
		t.Fatalf("SendSyscalls = %d out of range [1, %d]", st.SendSyscalls, st.SentDatagrams)
	}
	if st.RecvDatagrams < total {
		t.Fatalf("RecvDatagrams = %d, want ≥ %d", st.RecvDatagrams, total)
	}
	if st.RecvSyscalls < 1 || st.RecvSyscalls > st.RecvDatagrams {
		t.Fatalf("RecvSyscalls = %d out of range [1, %d]", st.RecvSyscalls, st.RecvDatagrams)
	}
}

// TestSocketBufferConfig asks for explicit socket buffers and checks the
// achieved sizes surface in Stats on platforms with readback.
func TestSocketBufferConfig(t *testing.T) {
	_, _, tr := batchedPair(t, func(c *Config) {
		c.ReadBufferBytes = 1 << 20
		c.WriteBufferBytes = 1 << 20
	})
	st := tr.Stats()
	rcv, snd := st.ReadBufferBytes, st.WriteBufferBytes
	if rcv == 0 && snd == 0 {
		t.Skip("no socket-buffer readback on this platform")
	}
	// The kernel may clamp (or double, on Linux) the request; just pin that
	// the knob moved the needle beyond the typical small default.
	if rcv < 1<<18 {
		t.Fatalf("achieved read buffer %d suspiciously small for a 1MiB request", rcv)
	}
	if snd < 1<<18 {
		t.Fatalf("achieved write buffer %d suspiciously small for a 1MiB request", snd)
	}
}

// BenchmarkResolve measures the per-envelope cost of the peer table's read
// side: one atomic load and a map lookup.
func BenchmarkResolve(b *testing.B) {
	peers := make(map[string]string, 64)
	for i := 0; i < 64; i++ {
		peers[fmt.Sprintf("0.%d", i)] = fmt.Sprintf("127.0.0.1:%d", 9000+i)
	}
	res, err := NewStaticResolver(peers)
	if err != nil {
		b.Fatal(err)
	}
	targets := make([]addr.Address, 0, 64)
	for i := 0; i < 64; i++ {
		targets = append(targets, addr.MustParse(fmt.Sprintf("0.%d", i)))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := res.Resolve(targets[i&63]); err != nil {
			b.Fatal(err)
		}
	}
}
