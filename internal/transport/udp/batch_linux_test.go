//go:build linux && (amd64 || arm64)

package udp

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// fleet attaches n loopback endpoints 0.0 … 0.(n−1) on one transport whose
// receive-vector pool counts what it creates, pausing settle after each
// attach.
func fleet(t *testing.T, n int, settle time.Duration, mut func(*Config)) ([]*endpoint, *atomic.Int64) {
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
	made := new(atomic.Int64)
	newVec := tr.recvPool.New
	tr.recvPool.New = func() any { made.Add(1); return newVec() }
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
	return eps, made
}

// TestIdleEndpointsBorrowFewVectors pins the lending claim: a read loop
// parked on an idle socket holds no receive vector, so sixteen endpoints
// share about one per processor instead of owning one each. Each read loop
// gets a moment to try its socket once and park before the next starts: a
// vector still out with one loop is not yet reusable by another, which
// under load could otherwise push the count past the bound for reasons
// other than ownership. The collector is off for the test: every GC cycle
// empties a sync.Pool, and the vectors themselves (1 MiB each) can trigger
// one, which would count as creations that no read loop kept.
func TestIdleEndpointsBorrowFewVectors(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops returned items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	_, made := fleet(t, 16, 3*time.Millisecond, nil)
	bound := int64(runtime.GOMAXPROCS(0) + 1)
	if got := made.Load(); got < 1 || got > bound {
		t.Fatalf("16 idle endpoints created %d receive vectors, want 1..%d", got, bound)
	}
}

// TestReadLoopsWaitForALentVector pins the bound on receive vectors: at most
// one per processor is out at once. With every one of them borrowed, a read
// loop whose socket turns readable waits — it creates no vector and delivers
// nothing — until one comes back.
func TestReadLoopsWaitForALentVector(t *testing.T) {
	eps, made := fleet(t, 2, 3*time.Millisecond, nil)
	tr := eps[0].tr
	held := make([]*recvVec, cap(tr.recvLent))
	for i := range held {
		held[i] = tr.borrowRecv()
	}
	before := made.Load()
	ev := event.NewBuilder().Int("seq", 1).Build(event.ID{Origin: eps[0].Addr().Key(), Seq: 1})
	if err := eps[0].Send(eps[1].Addr(), wire.Batch{Gossips: []core.Gossip{{Event: ev, Depth: 1, Rate: 1}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-eps[1].Recv():
		t.Fatal("a datagram was received with every vector lent")
	case <-time.After(50 * time.Millisecond):
	}
	if got := made.Load(); got != before {
		t.Errorf("a waiting read loop created %d vectors", got-before)
	}
	for _, v := range held {
		tr.returnRecv(v)
	}
	select {
	case <-eps[1].Recv():
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
			eps, _ := fleet(t, nodes, 0, func(c *Config) {
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
