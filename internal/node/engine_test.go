package node

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/interest"
	"pmcast/internal/membership"
	"pmcast/internal/transport"
)

// oracleRecords materializes a converged roster for engine tests, the same
// shortcut the harness's oracle bootstrap takes.
func oracleRecords(space addr.Space, count int, subFor func(addr.Address) interest.Subscription) membership.Update {
	recs := make([]membership.Record, count)
	for i := 0; i < count; i++ {
		a := space.AddressAt(i)
		recs[i] = membership.Record{Addr: a, Sub: subFor(a), Stamp: 1, Alive: true}
	}
	return membership.Update{Records: recs}
}

// TestStopLifecycle is the Stop-safety regression suite: Stop must be
// idempotent and safe in every lifecycle state — before Start, twice, from
// several goroutines, after the transport died underneath the node — and
// the delivery channel must close exactly once, with late step-mode
// deliveries discarded into the dropped counter instead of panicking.
func TestStopLifecycle(t *testing.T) {
	space := addr.MustRegular(2, 1)
	mk := func(net transport.Transport) *Node {
		n, err := New(net, Config{
			Addr: space.AddressAt(0), Space: space, R: 1, F: 1,
			Subscription: subEq(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	t.Run("stop before start leaves the node inert", func(t *testing.T) {
		n := mk(transport.MustNetwork(transport.Config{}))
		n.Stop()
		n.Start() // must not launch a runtime against the closed channels
		if _, err := n.Publish(map[string]event.Value{"b": event.Int(1)}); err != ErrStopped {
			t.Errorf("publish after stop-before-start: err=%v, want ErrStopped", err)
		}
		if _, ok := <-n.Deliveries(); ok {
			t.Error("delivery channel not closed")
		}
		n.Stop() // still idempotent
	})

	t.Run("double stop after start", func(t *testing.T) {
		n := mk(transport.MustNetwork(transport.Config{}))
		n.Start()
		n.Stop()
		n.Stop()
		if _, ok := <-n.Deliveries(); ok {
			t.Error("delivery channel not closed")
		}
	})

	t.Run("concurrent stops", func(t *testing.T) {
		n := mk(transport.MustNetwork(transport.Config{}))
		n.Start()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n.Stop()
				// Whichever Stop did the work, each returns after it closed
				// the delivery channel.
				select {
				case _, ok := <-n.Deliveries():
					if ok {
						t.Error("a delivery on a stopped node")
					}
				default:
					t.Error("Stop returned before the delivery channel closed")
				}
			}()
		}
		wg.Wait()
	})

	t.Run("stop after the transport closed underneath", func(t *testing.T) {
		net := transport.MustNetwork(transport.Config{})
		n := mk(net)
		n.Start()
		net.Close() // every endpoint force-detached
		n.Stop()    // must not panic or hang
	})

	// Serial or staged, an engine whose transport died stops, and Publish
	// refuses: the event could never leave.
	for name, workers := range map[string]int{"serial": 0, "parallel": 2} {
		t.Run(name+" engine winds down with its transport", func(t *testing.T) {
			net := transport.MustNetwork(transport.Config{})
			n, err := New(net, Config{
				Addr: space.AddressAt(0), Space: space, R: 1, F: 1,
				Subscription:  subEq(1),
				DecodeWorkers: workers,
				EncodeWorkers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			n.Start()
			net.Close() // the endpoint's Recv closes; the protocol stage must follow
			select {
			case <-n.done:
			case <-time.After(5 * time.Second):
				t.Fatal("protocol stage kept running after the transport died")
			}
			if _, err := n.Publish(map[string]event.Value{"b": event.Int(1)}); err != ErrStopped {
				t.Errorf("publish on a dead engine: err=%v, want ErrStopped", err)
			}
			n.Stop()
		})
	}

	t.Run("late step deliveries drop instead of panicking", func(t *testing.T) {
		n := mk(transport.MustNetwork(transport.Config{})) // step mode: never started
		gossip := func(seq uint64) transport.Envelope {
			ev := event.NewBuilder().Int("b", 1).Build(event.ID{Origin: "x", Seq: seq})
			return transport.Envelope{
				From:    space.AddressAt(1),
				To:      n.Addr(),
				Payload: core.Gossip{Event: ev, Depth: 1, Rate: 1},
			}
		}
		n.HandleEnvelope(gossip(1))
		select {
		case <-n.Deliveries():
		default:
			t.Fatal("live node did not deliver")
		}
		n.Stop()
		n.HandleEnvelope(gossip(2)) // channel is closed: must discard, not panic
		if d := n.DroppedDeliveries(); d != 1 {
			t.Errorf("dropped %d deliveries after stop, want 1", d)
		}
	})
}

// TestEngineConcurrentPublishFluxStop is the race-detector workout for the
// engine: a real-clock mini-fleet, serial and in each staged configuration,
// under concurrent Publish from several goroutines — two of them racing on
// the same publisher — subscription flux, and a node hard-stopped
// mid-traffic. Assertions are loose on purpose; the test's job is to put
// every engine stage under the race detector (the CI race job runs the whole
// suite with -race).
func TestEngineConcurrentPublishFluxStop(t *testing.T) {
	for _, w := range []struct{ decode, encode int }{{0, 0}, {0, 2}, {2, 0}, {2, 2}} {
		t.Run(fmt.Sprintf("decode=%d,encode=%d", w.decode, w.encode), func(t *testing.T) {
			testConcurrentPublishFluxStop(t, w.decode, w.encode)
		})
	}
}

func testConcurrentPublishFluxStop(t *testing.T, decodeWorkers, encodeWorkers int) {
	net := transport.MustNetwork(transport.Config{QueueLen: 4096})
	space := addr.MustRegular(3, 2)
	const fleetN = 9
	subFor := func(a addr.Address) interest.Subscription {
		if a.Equal(space.AddressAt(8)) {
			return subEq(2) // the mid-traffic victim is uninterested
		}
		return subEq(1)
	}
	roster := oracleRecords(space, fleetN, subFor)
	nodes := make([]*Node, fleetN)
	for i := range nodes {
		n, err := New(net, Config{
			Addr: space.AddressAt(i), Space: space,
			R: 2, F: 3, C: 3,
			Subscription:       subFor(space.AddressAt(i)),
			GossipInterval:     2 * time.Millisecond,
			MembershipInterval: 20 * time.Millisecond,
			SuspectAfter:       time.Hour,
			DeliveryBuffer:     2048,
			DecodeWorkers:      decodeWorkers,
			EncodeWorkers:      encodeWorkers,
			StageQueue:         512,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	counts := make([]atomic.Int64, fleetN)
	for i, n := range nodes {
		n.Membership().Apply(roster)
		if err := n.WarmViews(); err != nil {
			t.Fatal(err)
		}
		n.Start()
		go func(i int, c <-chan event.Event) {
			for range c {
				counts[i].Add(1)
			}
		}(i, n.Deliveries())
	}

	const perPublisher = 15
	var wg sync.WaitGroup
	publish := func(n *Node) {
		defer wg.Done()
		for k := 0; k < perPublisher; k++ {
			if _, err := n.Publish(map[string]event.Value{"b": event.Int(1)}); err != nil {
				t.Errorf("publish: %v", err)
				return
			}
		}
	}
	// Four publisher goroutines, two racing on node 0.
	for _, n := range []*Node{nodes[0], nodes[0], nodes[1], nodes[2]} {
		wg.Add(1)
		go publish(n)
	}
	// Subscription flux on node 4 while traffic flows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 10; k++ {
			nodes[4].Subscribe(subEq(int64(1 + k%2)))
			time.Sleep(time.Millisecond)
		}
	}()
	// Hard-stop node 8 mid-traffic, from two goroutines at once.
	wg.Add(2)
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			time.Sleep(10 * time.Millisecond)
			nodes[8].Stop()
		}()
	}
	wg.Wait()

	// Nodes with a stable b=1 interest must (probabilistically, loss-free)
	// deliver essentially the whole stream.
	const published = 4 * perPublisher
	waitFor(t, 15*time.Second, func() bool {
		for _, i := range []int{3, 5, 6, 7} {
			if counts[i].Load() < int64(published*9/10) {
				return false
			}
		}
		return true
	}, "stable subscribers to catch the stream")
	for _, n := range nodes[:8] {
		if d := n.DroppedDeliveries(); d != 0 {
			t.Errorf("%s dropped %d deliveries", n.Addr(), d)
		}
	}
}

// TestIdleStageQueuesHoldNoBound is the stage queues' footprint contract: a
// staged node whose queues — its inbox among them — are bounded at 4 096,
// the bound bench/ gives its fleets, holds storage for what its queues
// carry, not for the bound. After a burst has been disseminated, the
// started fleet's heap has grown by far less per node than the 256 KB that
// stage queues preallocated at their bound held. (That a drained queue
// keeps at most one spare segment is transport's FuzzStageQueueAgainstSlice.)
func TestIdleStageQueuesHoldNoBound(t *testing.T) {
	net := transport.MustNetwork(transport.Config{QueueLen: 4096})
	space := addr.MustRegular(4, 1)
	const fleetN, burst = 4, 100
	roster := oracleRecords(space, fleetN, func(addr.Address) interest.Subscription { return subEq(1) })
	nodes := make([]*Node, fleetN)
	for i := range nodes {
		n, err := New(net, Config{
			Addr: space.AddressAt(i), Space: space,
			R: 1, F: 2, C: 2,
			Subscription:   subEq(1),
			GossipInterval: time.Millisecond,
			// No membership traffic: once the burst's budgets run out, the
			// fleet is silent and its queues stay empty.
			MembershipInterval: time.Hour,
			SuspectAfter:       time.Hour,
			DeliveryBuffer:     burst,
			DecodeWorkers:      1,
			EncodeWorkers:      1,
			StageQueue:         4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Membership().Apply(roster)
		if err := n.WarmViews(); err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	counts := make([]atomic.Int64, fleetN)
	for i, n := range nodes {
		n.Start()
		go func(c <-chan event.Event) {
			for range c {
				counts[i].Add(1)
			}
		}(n.Deliveries())
	}
	for k := 0; k < burst; k++ {
		if _, err := nodes[0].Publish(map[string]event.Value{"b": event.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 15*time.Second, func() bool {
		for i := range nodes {
			if counts[i].Load() < burst {
				return false
			}
		}
		return true
	}, "every node to deliver the burst")
	// Silent once every round budget has run out; drained, every queue holds
	// nothing but, at most, its spare segment.
	waitFor(t, 15*time.Second, func() bool {
		for _, n := range nodes {
			n.mu.Lock()
			pending := n.proc.Pending()
			n.mu.Unlock()
			if pending > 0 {
				return false
			}
		}
		return true
	}, "the burst's gossip to run out")
	// The growth also counts the stage workers' batch buffers and the round
	// scratch the burst left behind, about 35 KB per node on a 64-bit host.
	grown := (int64(heap()) - int64(before)) / fleetN
	t.Logf("a started, drained node grew the heap by %d bytes", grown)
	if grown > 128<<10 {
		t.Errorf("a started, drained node grew the heap by %d KB, want well under the 256 KB a preallocated bound costs", grown>>10)
	}
}

// stallTransport is a fabric whose sends block until released — the slowest
// imaginable network, for proving the protocol stage never blocks on it.
type stallTransport struct {
	release chan struct{}
}

func (st *stallTransport) Attach(a addr.Address) (transport.Endpoint, error) {
	return &stallEndpoint{
		addr:    a,
		release: st.release,
		in:      transport.NewQueue[transport.Envelope](1),
		done:    make(chan struct{}),
	}, nil
}

func (st *stallTransport) Close() error { return nil }

type stallEndpoint struct {
	addr      addr.Address
	release   chan struct{}
	in        *transport.Inbox
	done      chan struct{}
	closeOnce sync.Once
}

func (e *stallEndpoint) Addr() addr.Address { return e.addr }

func (e *stallEndpoint) Send(addr.Address, any) error {
	select {
	case <-e.release:
		return nil
	case <-e.done:
		return transport.ErrClosed
	}
}

func (e *stallEndpoint) Inbox() *transport.Inbox { return e.in }

func (e *stallEndpoint) Recv() <-chan transport.Envelope { return e.in.View() }

func (e *stallEndpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		e.in.Close()
	})
	return nil
}

// TestEgressOverflowDropsAndCounts pins the stage-queue contract: when the
// fabric stalls and the bounded egress queue fills, the protocol stage keeps
// ticking — send jobs are dropped and counted (EngineStats), never awaited.
func TestEgressOverflowDropsAndCounts(t *testing.T) {
	st := &stallTransport{release: make(chan struct{})}
	space := addr.MustRegular(4, 1)
	n, err := New(st, Config{
		Addr: space.AddressAt(0), Space: space,
		R: 2, F: 3, C: 3,
		Subscription:   interest.NewSubscription(),
		GossipInterval: time.Millisecond,
		SuspectAfter:   time.Hour,
		EncodeWorkers:  1,
		StageQueue:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Membership().Apply(oracleRecords(space, 4, func(addr.Address) interest.Subscription {
		return interest.NewSubscription()
	}))
	if err := n.WarmViews(); err != nil {
		t.Fatal(err)
	}
	n.Start()
	t.Cleanup(func() {
		close(st.release) // unwedge the egress worker so Stop can join it
		n.Stop()
	})
	for k := 0; k < 8; k++ {
		if _, err := n.Publish(map[string]event.Value{"b": event.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		drops, _ := n.EngineStats()
		return drops > 0
	}, "egress overflow to be counted")
}
