//go:build linux && (amd64 || arm64)

package udp

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/transport"
	"pmcast/internal/wire"
)

// TestSendAllPartialCompletion pins the sendmmsg retry contract: the kernel
// may accept k < n messages (the first k are on the wire, the rest were
// never attempted), and sendAll must resubmit exactly the tail until the
// vector drains.
func TestSendAllPartialCompletion(t *testing.T) {
	msgs := make([]outFrame, 10)
	for i := range msgs {
		msgs[i].buf = []byte{byte(i)}
	}
	var calls [][]int        // first message index + length of each submitted chunk
	accept := []int{4, 1, 5} // the kernel takes 4, then 1, then the rest
	sent := 0
	syscalls, n, err := sendAll(msgs, 64, func(chunk []outFrame) (int, error) {
		calls = append(calls, []int{int(chunk[0].buf[0]), len(chunk)})
		k := accept[len(calls)-1]
		sent += k
		return k, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || syscalls != 3 {
		t.Fatalf("sent %d messages in %d syscalls, want 10 in 3", n, syscalls)
	}
	want := [][]int{{0, 10}, {4, 6}, {5, 5}}
	for i := range want {
		if calls[i][0] != want[i][0] || calls[i][1] != want[i][1] {
			t.Fatalf("call %d submitted [%d..] len %d, want [%d..] len %d",
				i, calls[i][0], calls[i][1], want[i][0], want[i][1])
		}
	}
}

// TestSendAllChunksAndErrors pins the vector-width split and the two error
// exits: a mid-stream syscall failure reports what was already accepted,
// and a zero-progress return fails rather than spinning.
func TestSendAllChunksAndErrors(t *testing.T) {
	msgs := make([]outFrame, 150)
	var lens []int
	syscalls, n, err := sendAll(msgs, 64, func(chunk []outFrame) (int, error) {
		lens = append(lens, len(chunk))
		return len(chunk), nil
	})
	if err != nil || n != 150 || syscalls != 3 {
		t.Fatalf("got (%d syscalls, %d sent, %v), want (3, 150, nil)", syscalls, n, err)
	}
	if lens[0] != 64 || lens[1] != 64 || lens[2] != 22 {
		t.Fatalf("chunk lengths %v, want [64 64 22]", lens)
	}

	boom := errors.New("boom")
	_, n, err = sendAll(msgs[:100], 64, func(chunk []outFrame) (int, error) {
		if len(chunk) == 64 {
			return 64, nil
		}
		return 10, boom // partial progress AND an error
	})
	if !errors.Is(err, boom) || n != 74 {
		t.Fatalf("got (%d sent, %v), want (74, boom)", n, err)
	}

	_, _, err = sendAll(msgs[:5], 64, func(chunk []outFrame) (int, error) {
		return 0, nil // no progress, no error: must not spin
	})
	if !errors.Is(err, errSendStall) {
		t.Fatalf("zero-progress send returned %v, want errSendStall", err)
	}
}

// TestBatchedSyscallAmortization asserts against the real kernel: a
// 128-message flush to one destination takes exactly two sendmmsg calls
// (the 64-wide vector), and the receiver drains them in far fewer recvmmsg
// calls than datagrams — the ≥4× amortization the tentpole claims. The send
// side is exact every round. The receive side races the sender: a receiver
// that wakes while sendmmsg is still delivering drains loopback datagrams
// one by one, so its floor is asked of the best of a few rounds, each on a
// fresh pair.
func TestBatchedSyscallAmortization(t *testing.T) {
	const total, rounds = 128, 5
	msgs := make([]transport.Outgoing, 0, total)
	for i := 0; i < total; i++ {
		msgs = append(msgs, transport.Outgoing{To: addr.MustParse("0.1"), Payload: oneGossip(i)})
	}
	var st Stats
	for round := 0; round < rounds; round++ {
		a, b, tr := batchedPair(t, func(c *Config) {
			c.ReadBufferBytes = 4 << 20 // no drops: every datagram must land
		})
		sender := a.(*endpoint)
		if sender.bio == nil {
			t.Skip("kernel-batched path unavailable")
		}
		if err := sender.SendMany(msgs); err != nil {
			t.Fatal(err)
		}
		frames := collectFrames(t, b, total)
		if len(frames) != total {
			t.Fatalf("delivered %d/%d", len(frames), total)
		}
		st = tr.Stats()
		if !st.BatchSend || !st.BatchRecv {
			t.Fatalf("stats report batching off: %+v", st)
		}
		if st.SentDatagrams != total {
			t.Fatalf("SentDatagrams = %d, want %d", st.SentDatagrams, total)
		}
		if st.SendSyscalls != 2 {
			t.Fatalf("SendSyscalls = %d, want 2 (two 64-wide sendmmsg vectors)", st.SendSyscalls)
		}
		if st.RecvSyscalls*4 <= st.RecvDatagrams {
			return
		}
		t.Logf("round %d: %d recv syscalls for %d datagrams", round, st.RecvSyscalls, st.RecvDatagrams)
	}
	t.Fatalf("recv amortization too weak in every one of %d rounds: last %d syscalls for %d datagrams",
		rounds, st.RecvSyscalls, st.RecvDatagrams)
}

// fleet attaches n loopback endpoints 0.0 … 0.(n−1) on one transport,
// pausing settle after each attach.
func fleet(t *testing.T, n int, settle time.Duration, mut func(*Config)) []*endpoint {
	t.Helper()
	peers := make(map[string]string, n)
	for i := 0; i < n; i++ {
		peers[fmt.Sprintf("0.%d", i)] = "127.0.0.1:0"
	}
	res, err := NewStaticResolver(peers)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Resolver: res}
	if mut != nil {
		mut(&cfg)
	}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	eps := make([]*endpoint, n)
	for i := range eps {
		ep, err := tr.Attach(addr.New(0, i))
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep.(*endpoint)
		if eps[i].bio == nil {
			t.Skip("kernel-batched path unavailable")
		}
		time.Sleep(settle)
	}
	return eps
}

// borrowAll takes every receive vector's place from tr, waiting for the ones
// out; a place holds nil until its first loan.
func borrowAll(tr *Transport) []*recvVec {
	held := make([]*recvVec, cap(tr.recvFree))
	for i := range held {
		held[i] = <-tr.recvFree
	}
	return held
}

// giveBack returns what borrowAll took.
func giveBack(tr *Transport, held []*recvVec) {
	for _, v := range held {
		tr.recvFree <- v
	}
}

// vectorsMade counts the receive vectors f makes at the default
// MaxDatagram: the 1 MiB arenas among the allocations it records, every
// one of them while it runs.
func vectorsMade(f func()) int {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	arenas := func() (n int64) {
		runtime.GC() // a profile is published a cycle late
		runtime.GC()
		k, _ := runtime.MemProfile(nil, true)
		recs := make([]runtime.MemProfileRecord, k+64)
		k, _ = runtime.MemProfile(recs, true)
		for _, r := range recs[:k] {
			if r.AllocObjects > 0 && r.AllocBytes/r.AllocObjects == recvVector<<16 {
				n += r.AllocObjects
			}
		}
		return n
	}
	before := arenas()
	f()
	return int(arenas() - before)
}

// TestIdleEndpointsBorrowFewVectors pins the lending claim: a read loop
// parked on an idle socket holds no receive vector and never made one, so
// sixteen idle endpoints make none at all instead of owning one each.
func TestIdleEndpointsBorrowFewVectors(t *testing.T) {
	var eps []*endpoint
	made := vectorsMade(func() { eps = fleet(t, 16, 3*time.Millisecond, nil) })
	if loans := eps[0].tr.recvLoans.Load(); made != 0 || loans != 0 {
		t.Fatalf("16 idle endpoints made %d receive vectors in %d loans, want none", made, loans)
	}
}

// TestOneLoanPerDeliveredBurst pins when a read loop borrows: only once its
// socket holds a datagram. A burst that one wakeup drains costs exactly one
// loan, whether the datagram was queued before the loop looked (its peek
// finds it) or arrived while it was parked (the wakeup reads at once), and
// the idle endpoints beside it take none.
func TestOneLoanPerDeliveredBurst(t *testing.T) {
	const bursts = 8
	eps := fleet(t, 4, 3*time.Millisecond, nil)
	tr := eps[0].tr
	for b := 1; b <= bursts; b++ {
		if b%2 == 0 {
			time.Sleep(5 * time.Millisecond) // the loop parks before the datagram
		}
		if err := eps[0].Send(eps[1].Addr(), oneGossip(b)); err != nil {
			t.Fatal(err)
		}
		recvOne(t, eps[1]).Payload.(transport.Raw).Release()
		if loans := tr.recvLoans.Load(); loans != int64(b) {
			t.Fatalf("after %d delivered bursts the read loops took %d loans, want %d", b, loans, b)
		}
	}
	if st := tr.Stats(); st.RecvSyscalls != bursts || st.RecvDatagrams != bursts {
		t.Fatalf("%d recvmmsg calls read %d datagrams, want %d each", st.RecvSyscalls, st.RecvDatagrams, bursts)
	}
}

// TestVectorsOutliveCollections pins the fixed set: after many wakeups
// across several endpoints, with a collection after each burst, the
// transport has made no more than one vector per processor in all. A
// sync.Pool drops what it holds at every collection, so lending from one
// made vectors afresh after each.
func TestVectorsOutliveCollections(t *testing.T) {
	const nodes, bursts, perBurst = 6, 12, 8
	var st Stats
	made := vectorsMade(func() {
		eps := fleet(t, nodes, 0, func(c *Config) { c.ReadBufferBytes = 1 << 20 })
		out := make([]transport.Envelope, perBurst)
		for b := 0; b < bursts; b++ {
			for i, ep := range eps {
				msgs := make([]transport.Outgoing, perBurst)
				for k := range msgs {
					msgs[k] = transport.Outgoing{To: eps[(i+1)%nodes].Addr(), Payload: oneGossip(b*perBurst + k)}
				}
				if err := ep.SendMany(msgs); err != nil {
					t.Fatal(err)
				}
			}
			for _, ep := range eps {
				deadline := time.Now().Add(5 * time.Second)
				for got := 0; got < perBurst; {
					k, _ := ep.in.Drain(out)
					for _, env := range out[:k] {
						env.Payload.(transport.Raw).Release()
					}
					if got += k; k == 0 {
						if time.Now().After(deadline) {
							t.Fatalf("burst %d: %s received %d/%d", b, ep.Addr(), got, perBurst)
						}
						time.Sleep(time.Millisecond)
					}
				}
			}
			runtime.GC()
		}
		st = eps[0].tr.Stats()
	})
	if st.RecvSyscalls < bursts*nodes/2 {
		t.Fatalf("only %d receive wakeups", st.RecvSyscalls)
	}
	if bound := runtime.GOMAXPROCS(0); made > bound {
		t.Fatalf("%d receive wakeups made %d vectors, want at most %d", st.RecvSyscalls, made, bound)
	}
}

// TestReadLoopsWaitForALentVector pins the bound on receive vectors: at most
// one per processor is out at once. With every one of them borrowed, a read
// loop whose socket turns readable waits — it delivers nothing — until one
// comes back.
func TestReadLoopsWaitForALentVector(t *testing.T) {
	eps := fleet(t, 2, 3*time.Millisecond, nil)
	tr := eps[0].tr
	held := borrowAll(tr)
	ev := event.NewBuilder().Int("seq", 1).Build(event.ID{Origin: eps[0].Addr().Key(), Seq: 1})
	if err := eps[0].Send(eps[1].Addr(), wire.Batch{Gossips: []core.Gossip{{Event: ev, Depth: 1, Rate: 1}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-eps[1].in.Ready():
		t.Fatal("a datagram was received with every vector lent")
	case <-time.After(50 * time.Millisecond):
	}
	giveBack(tr, held)
	out := make([]transport.Envelope, 1)
	got := make(chan int, 1)
	go func() { k, _ := eps[1].in.RecvMany(out); got <- k }()
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("the datagram never arrived once the vectors came back")
	}
}

// TestLentVectorsDeliverIntact has sixteen endpoints receive distinct
// payloads at once through the shared vectors. deliver copies or decodes a
// datagram before its vector goes back to the pool, so every payload must
// arrive byte for byte whichever read loop borrows the vector next; the
// bodies are longer than the decoder interns, so they are copied, not
// shared.
func TestLentVectorsDeliverIntact(t *testing.T) {
	const nodes, perLink = 16, 48
	body := func(from, seq int) string {
		return strings.Repeat(string(rune('a'+from)), 80+seq) + fmt.Sprint(from*1000+seq)
	}
	for _, deferDecode := range []bool{false, true} {
		t.Run(fmt.Sprintf("defer=%v", deferDecode), func(t *testing.T) {
			eps := fleet(t, nodes, 0, func(c *Config) {
				c.DeferDecode = deferDecode
				c.ReadBufferBytes = 1 << 20
			})
			var wg sync.WaitGroup
			for i, ep := range eps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					to := addr.New(0, (i+1)%nodes)
					msgs := make([]transport.Outgoing, perLink)
					for seq := range msgs {
						ev := event.NewBuilder().Int("from", int64(i)).Int("seq", int64(seq)).Str("body", body(i, seq)).
							Build(event.ID{Origin: ep.Addr().Key(), Seq: uint64(seq + 1)})
						msgs[seq] = transport.Outgoing{To: to, Payload: wire.Batch{Gossips: []core.Gossip{{Event: ev, Depth: 2, Rate: 0.5, Round: 1}}}}
					}
					if err := ep.SendMany(msgs); err != nil {
						t.Error(err)
					}
				}()
			}
			errs := make(chan error, nodes)
			for i, ep := range eps {
				go func() {
					dec := wire.NewDecoder()
					from := (i + nodes - 1) % nodes
					for seq := 0; seq < perLink; seq++ {
						var env transport.Envelope
						select {
						case env = <-ep.Recv():
						case <-time.After(10 * time.Second):
							errs <- fmt.Errorf("0.%d: %d/%d payloads arrived", i, seq, perLink)
							return
						}
						payload := env.Payload
						if raw, ok := payload.(transport.Raw); ok {
							var err error
							payload, err = dec.Decode(raw.Frame)
							raw.Release()
							if err != nil {
								errs <- err
								return
							}
						}
						b, ok := payload.(wire.Batch)
						if !ok || len(b.Gossips) != 1 {
							errs <- fmt.Errorf("0.%d: payload %T %+v", i, payload, payload)
							return
						}
						g := b.Gossips[0]
						got, _ := g.Event.Attr("body").AsString()
						if !env.From.Equal(addr.New(0, from)) || g.Event.ID().Seq != uint64(seq+1) || got != body(from, seq) {
							errs <- fmt.Errorf("0.%d: payload %d from %s arrived as seq %d body %q", i, seq, env.From, g.Event.ID().Seq, got)
							return
						}
					}
					errs <- nil
				}()
			}
			wg.Wait()
			for range eps {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestIdleUDPInboxHoldsNoBound: a UDP endpoint's inbox holds storage for the
// frames it carries, not for its bound. Endpoints attached at QueueLen
// 4 096 grow the heap by about a KiB each with their sockets (a channel of
// the bound was 128 KiB), and after each has received and drained a frame
// it keeps one spare segment, 2 KiB. The count starts from a fresh
// transport, which has made no receive vector: an idle endpoint makes none,
// so one would show as 128 KiB an endpoint. The vectors the deliveries make
// are shared by every endpoint, and the drained count leaves them out; the
// portable path has the same inbox.
func TestIdleUDPInboxHoldsNoBound(t *testing.T) {
	const endpoints, perEndpoint = 8, 8 << 10
	peers := make(map[string]string, endpoints)
	for i := 0; i < endpoints; i++ {
		peers[addr.New(0, i).String()] = "127.0.0.1:0"
	}
	res, err := NewStaticResolver(peers)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{Resolver: res, QueueLen: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// The codec's pools are shared by every endpoint: made first, by a frame
	// through another pair.
	from, warm, _ := pair(t)
	if err := from.Send(warm.Addr(), oneGossip(0)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, warm).Payload.(transport.Raw).Release()
	before := liveHeap()
	eps := make([]transport.Endpoint, endpoints)
	for i := range eps {
		if eps[i], err = tr.Attach(addr.New(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	grown := (liveHeap() - before) / endpoints
	t.Logf("an idle UDP endpoint grew the heap by %d bytes", grown)
	if grown > perEndpoint {
		t.Errorf("an idle UDP endpoint grew the heap by %d bytes, want at most %d", grown, perEndpoint)
	}
	for i, ep := range eps {
		if err := eps[(i+1)%endpoints].Send(ep.Addr(), oneGossip(i)); err != nil {
			t.Fatal(err)
		}
		recvOne(t, ep).Payload.(transport.Raw).Release()
	}
	held := borrowAll(tr)
	shared := int64(0)
	for _, v := range held {
		if v != nil {
			shared += int64(unsafe.Sizeof(*v)) + int64(recvVector*cap(v.bufs[0]))
		}
	}
	giveBack(tr, held)
	grown = (liveHeap() - before - shared) / endpoints
	t.Logf("a drained UDP endpoint grew the heap by %d bytes", grown)
	if grown > perEndpoint {
		t.Errorf("a drained UDP endpoint grew the heap by %d bytes, want at most %d", grown, perEndpoint)
	}
}
