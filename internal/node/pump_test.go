package node

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/clock"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/interest"
	"pmcast/internal/membership"
	"pmcast/internal/transport"
	"pmcast/internal/wire"
)

// queueTransport is a one-endpoint fabric for run-loop tests: the inbox is a
// queue the test fills — ahead of time, or from a goroutine that never lets it
// run dry — and everything the node sends lands on sent.
type queueTransport struct {
	in   *transport.Inbox
	sent chan any

	flood     transport.Envelope // when From is set, a goroutine keeps in full of these
	full      atomic.Bool        // the flood has found the inbox full
	done      chan struct{}
	flooder   sync.WaitGroup
	closeOnce sync.Once
}

func newQueueTransport(queue int) *queueTransport {
	return &queueTransport{
		in:   transport.NewQueue[transport.Envelope](queue),
		sent: make(chan any, 1024),
		done: make(chan struct{}),
	}
}

// queue puts env on the inbox, which must have room.
func (q *queueTransport) queue(t *testing.T, env transport.Envelope) {
	t.Helper()
	if !q.in.TryPush(env) {
		t.Fatal("the test inbox is full")
	}
}

func (q *queueTransport) Attach(a addr.Address) (transport.Endpoint, error) {
	if !q.flood.From.IsZero() {
		q.flooder.Add(1)
		go func() {
			defer q.flooder.Done()
			for {
				if q.in.TryPush(q.flood) {
					continue
				}
				q.full.Store(true)
				select {
				case <-q.done:
					return
				case <-time.After(time.Microsecond): // full: let the pump make room
				}
			}
		}()
	}
	return &queueEndpoint{q: q, addr: a}, nil
}

func (q *queueTransport) Close() error { return nil }

type queueEndpoint struct {
	q    *queueTransport
	addr addr.Address
}

func (e *queueEndpoint) Addr() addr.Address { return e.addr }

func (e *queueEndpoint) Send(_ addr.Address, payload any) error {
	select {
	case e.q.sent <- payload:
	default: // the test reads what it needs; the rest may go
	}
	return nil
}

func (e *queueEndpoint) Inbox() *transport.Inbox { return e.q.in }

func (e *queueEndpoint) Recv() <-chan transport.Envelope { return e.q.in.View() }

// Close stops the flooder, waits for it, and only then closes the inbox it
// was sending on.
func (e *queueEndpoint) Close() error {
	e.q.closeOnce.Do(func() {
		close(e.q.done)
		e.q.flooder.Wait()
		e.q.in.Close()
	})
	return nil
}

// TestPumpIsBounded: with an inbox that is never empty, the protocol stage
// still gets back to its tickers and to stop — a published event leaves the
// node within three gossip intervals and Stop returns within a second. An
// unbounded drain would do neither.
func TestPumpIsBounded(t *testing.T) {
	const interval = 100 * time.Millisecond
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 0}, {"staged", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			space := addr.MustRegular(4, 1)
			q := newQueueTransport(256)
			// Each flood envelope costs the node far more to handle (256
			// seen-set lookups) than the flooder to queue, so the inbox stays
			// full however fast the pump is.
			dup := core.Gossip{Event: event.NewBuilder().Int("b", 0).Build(event.ID{Origin: "flood", Seq: 1}), Depth: 1, Rate: 1}
			batch := wire.Batch{Gossips: make([]core.Gossip, 256)}
			for i := range batch.Gossips {
				batch.Gossips[i] = dup
			}
			q.flood = transport.Envelope{From: space.AddressAt(1), To: space.AddressAt(0), Payload: batch}
			n, err := New(q, Config{
				Addr: space.AddressAt(0), Space: space,
				R: 2, F: 3, C: 3,
				Subscription:   interest.NewSubscription(),
				GossipInterval: interval,
				SuspectAfter:   time.Hour,
				EncodeWorkers:  tc.workers,
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
			waitFor(t, 5*time.Second, q.full.Load, "the flood to fill the inbox")
			published := time.Now()
			id, err := n.Publish(map[string]event.Value{"b": event.Int(1)})
			if err != nil {
				t.Fatal(err)
			}
			left := false
			for deadline := time.After(10 * time.Second); !left; {
				select {
				case payload := <-q.sent:
					if m, ok := payload.(wire.Batch); ok { // maybe in one envelope with the flood's own event
						for _, g := range m.Gossips {
							left = left || g.Event.ID() == id
						}
					}
				case <-deadline:
					t.Fatal("the gossip ticker starved behind a full inbox: the event never left the node")
				}
			}
			if took := time.Since(published); took > 3*interval {
				t.Errorf("the published event left the node after %v, want within 3 gossip intervals (%v)", took, 3*interval)
			}
			stopped := time.Now()
			n.Stop()
			if took := time.Since(stopped); took > time.Second {
				t.Errorf("Stop took %v behind a full inbox, want under 1s", took)
			}
		})
	}
}

// TestStepAndLivePumpParity: step mode's PumpInbox and the live engine's
// bounded pump are one drain — given the same queue, longer than a live batch,
// both handle every envelope, in queue order.
func TestStepAndLivePumpParity(t *testing.T) {
	space := addr.MustRegular(4, 1)
	const queued = 3*ingressRecvBatch + 7
	fill := func() *queueTransport {
		q := newQueueTransport(queued)
		for i := 0; i < queued; i++ {
			from := space.AddressAt(1 + i/5%3) // runs of five envelopes a sender
			var payload any = wire.Batch{Heartbeat: &membership.Heartbeat{}}
			if i%4 != 3 {
				ev := event.NewBuilder().Int("b", 1).Build(event.ID{Origin: from.String(), Seq: uint64(queued - i)})
				payload = core.Gossip{Event: ev, Depth: 1, Rate: 1}
			}
			q.queue(t, transport.Envelope{From: from, To: space.AddressAt(0), Payload: payload})
		}
		return q
	}
	mk := func(q *queueTransport) *Node {
		n, err := New(q, Config{
			Addr: space.AddressAt(0), Space: space,
			R: 2, F: 3, C: 3,
			Subscription:   subEq(1),
			GossipInterval: time.Hour, MembershipInterval: time.Hour, SuspectAfter: time.Hour,
			DeliveryBuffer: queued,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		return n
	}
	delivered := func(n *Node) []event.ID {
		var ids []event.ID
		for len(ids) < queued-queued/4 {
			select {
			case ev := <-n.Deliveries():
				ids = append(ids, ev.ID())
			case <-time.After(10 * time.Second):
				t.Fatalf("%d deliveries, want %d", len(ids), queued-queued/4)
			}
		}
		return ids
	}
	step := mk(fill())
	if handled := step.PumpInbox(); handled != queued {
		t.Fatalf("PumpInbox handled %d of %d queued envelopes", handled, queued)
	}
	want := delivered(step)

	live := mk(fill())
	live.Start()
	if got := delivered(live); !reflect.DeepEqual(got, want) {
		t.Errorf("the live pump delivered\n%v\nPumpInbox\n%v", got, want)
	}
}

// countingClock counts the reads of a virtual clock.
type countingClock struct {
	*clock.Virtual
	reads int
}

func (c *countingClock) Now() time.Time {
	c.reads++
	return c.Virtual.Now()
}

// TestPumpRecordsLivenessPerSenderRun: a pump reads the clock once however
// many envelopes it handles, and every sender in it is recorded — also one
// whose envelopes come in several runs — as the failure detector shows: after
// a pump of life signs from two of three neighbors, only the silent one is
// suspected.
func TestPumpRecordsLivenessPerSenderRun(t *testing.T) {
	space := addr.MustRegular(4, 1)
	clk := &countingClock{Virtual: clock.NewVirtual()}
	q := newQueueTransport(64)
	n, err := New(q, Config{
		Addr: space.AddressAt(0), Space: space,
		R: 2, F: 3, C: 3,
		Subscription: subEq(1),
		SuspectAfter: 30 * time.Second,
		Clock:        clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	n.Membership().Apply(oracleRecords(space, 4, func(addr.Address) interest.Subscription { return subEq(1) }))
	if got := n.SweepFailures(); len(got) != 0 { // every neighbor's timer starts now
		t.Fatalf("first sweep suspected %v", got)
	}
	clk.Advance(20 * time.Second)
	for i, from := range []int{1, 1, 2, 2, 2, 1, 2, 1, 1} {
		ev := event.NewBuilder().Int("b", 1).Build(event.ID{Origin: "x", Seq: uint64(i + 1)})
		q.queue(t, transport.Envelope{From: space.AddressAt(from), To: n.Addr(), Payload: core.Gossip{Event: ev, Depth: 1, Rate: 1}})
	}
	before := clk.reads
	if handled := n.PumpInbox(); handled != 9 {
		t.Fatalf("pumped %d envelopes, want 9", handled)
	}
	if reads := clk.reads - before; reads != 1 {
		t.Errorf("the pump read the clock %d times, want once", reads)
	}
	clk.Advance(20 * time.Second) // 40 s after the first sweep, 20 s after the pump
	got := n.SweepFailures()
	if len(got) != 1 || !got[0].Equal(space.AddressAt(3)) {
		t.Errorf("suspected %v, want only the neighbor the pump did not hear from (%s)", got, space.AddressAt(3))
	}
}
