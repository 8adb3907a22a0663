package node

import (
	"testing"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/fec"
	"pmcast/internal/transport"
	"pmcast/internal/wire"
)

// fecGossip builds a depth-1 gossip carrying a matching event from the
// given origin — the shape a receiving node folds straight into its process.
func fecGossip(origin string, seq uint64) core.Gossip {
	id := event.ID{Origin: origin, Seq: seq}
	ev := event.New(id, map[string]event.Value{"b": event.Int(7)})
	return core.Gossip{Event: ev, Depth: 1, Rate: 1, Round: 0}
}

// TestFECRecoversWithheldGossip drives the reassembly path synchronously: a
// coded round arrives with one source gossip withheld (lost), and a single
// repair symbol must reconstruct it — the node delivers all events,
// including the one that never arrived on the wire.
func TestFECRecoversWithheldGossip(t *testing.T) {
	net := transport.MustNetwork(transport.Config{})
	space := addr.MustRegular(3, 2)
	n, err := New(net, Config{
		Addr:         space.AddressAt(0),
		Space:        space,
		R:            2,
		F:            3,
		C:            2,
		Subscription: subEq(7),
		FECSources:   4,
		FECRepairs:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	sender := space.AddressAt(5)
	gossips := make([]core.Gossip, 4)
	ids := make([]event.ID, 4)
	srcs := make([]fec.Source, 4)
	for i := range gossips {
		gossips[i] = fecGossip(sender.Key(), uint64(i+1))
		ids[i] = gossips[i].Event.ID()
		srcs[i] = fec.Source{
			ID:   ids[i],
			Meta: fec.Meta{Depth: gossips[i].Depth, Rate: gossips[i].Rate, Round: gossips[i].Round},
			Body: wire.AppendEventBody(nil, gossips[i].Event),
		}
	}
	gens := fec.NewEncoder(4, 2).Encode(srcs)
	if len(gens) != 1 {
		t.Fatalf("generations = %d, want 1", len(gens))
	}

	// Deliver three of the four sources (index 1 is "lost in transit") as the
	// round envelope a lossy link leaves of them.
	survivors := append(append([]core.Gossip(nil), gossips[:1]...), gossips[2:]...)
	n.HandleEnvelope(transport.Envelope{From: sender, To: n.Addr(), Payload: wire.Batch{Gossips: survivors}})
	if st := n.FECStats(); st.Recovered != 0 {
		t.Fatalf("recovered %d before any repair arrived", st.Recovered)
	}
	// One repair symbol closes the generation: 3 sources + 1 repair = k. It
	// arrives the way the backstop flush sends one, in a repair-only envelope.
	repair := gens[0]
	repair.Repairs = repair.Repairs[:1]
	repairOnly := transport.Envelope{From: sender, To: n.Addr(), Payload: wire.Batch{FEC: []fec.Generation{repair}}}
	n.HandleEnvelope(repairOnly)

	if st := n.FECStats(); st.Recovered != 1 {
		t.Fatalf("decode should recover immediately: %+v", st)
	}
	got := map[event.ID]bool{}
	for len(n.Deliveries()) > 0 {
		got[(<-n.Deliveries()).ID()] = true
	}
	if len(got) != 3 || got[ids[1]] {
		t.Fatalf("delivered %v before any round: want the 3 survivors", got)
	}
	// The recovery waits out its revival delay: if the real wave had
	// delivered the event meanwhile, the revival would cancel as a
	// duplicate. Here it never arrives, so the delayed re-entry delivers.
	for round := 1; !got[ids[1]]; round++ {
		if round > 10 {
			t.Fatal("the withheld gossip was not delivered within 10 rounds")
		}
		n.TickGossip()
		for len(n.Deliveries()) > 0 {
			got[(<-n.Deliveries()).ID()] = true
		}
	}
	st := n.FECStats()
	if st.Recovered != 1 || st.Decodes != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want 1 recovery from 1 decode, 0 corrupt", st)
	}
	if st.RepairsReceived != 1 {
		t.Fatalf("RepairsReceived = %d, want 1", st.RepairsReceived)
	}

	// A duplicate of the same repair must not re-recover anything.
	n.HandleEnvelope(repairOnly)
	if st := n.FECStats(); st.Recovered != 1 {
		t.Fatalf("duplicate repair re-recovered: %+v", st)
	}
}

// TestFECCodedRoundOnWire pins the sender side: with coding on, a round
// that fills a peer's generation accumulator leaves the node as a batch
// whose FEC section carries r repair symbols, RepairBytes accounts for
// them, and a partial generation left behind flushes in a repair-only
// batch once it ages out.
func TestFECCodedRoundOnWire(t *testing.T) {
	var batches []wire.Batch
	net := transport.MustNetwork(transport.Config{
		Tap: func(from, to addr.Address, payload any) {
			if b, ok := payload.(wire.Batch); ok {
				batches = append(batches, b)
			}
		},
	})
	space := addr.MustRegular(3, 2)
	make3 := func(i int) *Node {
		n, err := New(net, Config{
			Addr:         space.AddressAt(i),
			Space:        space,
			R:            2,
			F:            3,
			C:            2,
			Subscription: subEq(7),
			FECSources:   4,
			FECRepairs:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		return n
	}
	a, b := make3(0), make3(1)
	// Hand-converge membership in step mode: join, digest, pump.
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4 && (a.KnownMembers() < 2 || b.KnownMembers() < 2); i++ {
		a.PumpInbox()
		b.PumpInbox()
		a.TickMembership()
		b.TickMembership()
		a.PumpInbox()
		b.PumpInbox()
	}
	if a.KnownMembers() != 2 || b.KnownMembers() != 2 {
		t.Fatalf("membership did not converge: %d/%d", a.KnownMembers(), b.KnownMembers())
	}

	// Four events fill b's k=4 accumulator within the first round-send.
	for i := 0; i < 4; i++ {
		if _, err := a.Publish(map[string]event.Value{"b": event.Int(7)}); err != nil {
			t.Fatal(err)
		}
	}
	batches = nil
	a.TickGossip()
	coded := 0
	for _, bt := range batches {
		if len(bt.FEC) > 0 {
			coded++
			for _, gen := range bt.FEC {
				if gen.K != len(gen.IDs) || len(gen.Meta) != gen.K || len(gen.Repairs) != 1 {
					t.Fatalf("bad generation on the wire: %+v", gen)
				}
			}
		}
	}
	if coded == 0 {
		t.Fatal("no coded batch left the publisher")
	}
	if st := a.FECStats(); st.RepairBytes <= 0 {
		t.Fatalf("RepairBytes = %d, want > 0", st.RepairBytes)
	}

	// One more event leaves a partial generation behind. While gossip
	// traffic to the peer continues, the encoder piggybacks the aged short
	// generation (K=1) onto an ordinary envelope rather than spending a
	// dedicated repair-only batch on it.
	if _, err := a.Publish(map[string]event.Value{"b": event.Int(7)}); err != nil {
		t.Fatal(err)
	}
	a.TickGossip()
	batches = nil
	short := 0
	for round := 1; short == 0; round++ {
		if round > 16 {
			t.Fatalf("no short aged flush within 16 rounds: %+v", batches)
		}
		a.TickGossip()
		for _, bt := range batches {
			if len(bt.FEC) == 1 && bt.FEC[0].K == 1 {
				short++
				if len(bt.Gossips) == 0 {
					t.Fatalf("short flush spent a dedicated envelope despite live traffic: %+v", bt)
				}
			}
		}
		batches = nil
	}
}

// TestLossyNetworkCodedDelivers is the live-engine version of the lossy
// delivery test with the coding layer on: a 25%-lossy fabric, a coded
// fleet, and every interested node still delivers every event.
func TestLossyNetworkCodedDelivers(t *testing.T) {
	net := transport.MustNetwork(transport.Config{Loss: 0.25, Seed: 5})
	space := addr.MustRegular(3, 2)
	nodes := make([]*Node, 9)
	for i := range nodes {
		n, err := New(net, Config{
			Addr:               space.AddressAt(i),
			Space:              space,
			R:                  2,
			F:                  3,
			C:                  2,
			Subscription:       subEq(1),
			GossipInterval:     4 * time.Millisecond,
			MembershipInterval: 6 * time.Millisecond,
			SuspectAfter:       time.Hour,
			FECSources:         4,
			FECRepairs:         2,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	for _, n := range nodes {
		n.Start()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	for _, n := range nodes[1:] {
		if err := n.Join(nodes[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		for _, n := range nodes {
			if n.KnownMembers() != len(nodes) {
				return false
			}
		}
		return true
	}, "membership convergence")

	const events = 3
	for i := 0; i < events; i++ {
		if _, err := nodes[0].Publish(map[string]event.Value{"b": event.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes[1:] {
		n := n
		got := 0
		waitFor(t, 10*time.Second, func() bool {
			select {
			case <-n.Deliveries():
				got++
			default:
			}
			return got == events
		}, "coded lossy delivery at "+n.Addr().String())
	}
	var repairs int64
	for _, n := range nodes {
		repairs += n.FECStats().RepairsReceived
	}
	if repairs == 0 {
		t.Error("no repair symbols crossed the lossy fabric")
	}
}
