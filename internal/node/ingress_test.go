package node

import (
	"reflect"
	"testing"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/fec"
	"pmcast/internal/interest"
	"pmcast/internal/membership"
	"pmcast/internal/transport"
	"pmcast/internal/wire"
)

// TestIngressParityAcrossFabrics: a round envelope is one value on every
// fabric, so a node fed the same envelopes as the in-memory fabric hands them
// over (wire.Batch values) and as the UDP fabric does (frames for the node to
// decode) must end in the same state: the same deliveries in the same order,
// coding-layer and matching counters, and membership version.
func TestIngressParityAcrossFabrics(t *testing.T) {
	space := addr.MustRegular(3, 2)
	sender := space.AddressAt(5)
	roster := oracleRecords(space, space.Capacity(), func(addr.Address) interest.Subscription { return subEq(7) })

	coded := make([]core.Gossip, 4)
	srcs := make([]fec.Source, len(coded))
	for i := range coded {
		coded[i] = fecGossip(sender.Key(), uint64(10+i))
		srcs[i] = fec.Source{
			ID:   coded[i].Event.ID(),
			Meta: fec.Meta{Depth: coded[i].Depth, Rate: coded[i].Rate, Round: coded[i].Round},
			Body: wire.AppendEventBody(nil, coded[i].Event),
		}
	}
	gen := fec.NewEncoder(4, 2).Encode(srcs)[0]
	gen.Repairs = gen.Repairs[1:] // the link lost the first symbol and a source
	moved := roster.Records[7]
	moved.Sub, moved.Stamp = subEq(8), 2
	probe := func() wire.Batch {
		return wire.Batch{Digest: &membership.Digest{From: sender}, Heartbeat: &membership.Heartbeat{}}
	}
	closing := probe()
	closing.Gossips = []core.Gossip{fecGossip(sender.Key(), 20), fecGossip(sender.Key(), 21), fecGossip(sender.Key(), 1)}
	closing.Update = &membership.Update{From: sender, Records: []membership.Record{moved}}
	envelopes := []wire.Batch{
		{Gossips: []core.Gossip{fecGossip(sender.Key(), 1), fecGossip(sender.Key(), 2), fecGossip(sender.Key(), 3)}}, // plain
		probe(), // membership only
		{Gossips: []core.Gossip{coded[0], coded[1], coded[3]}, FEC: []fec.Generation{gen}}, // coded, a symbol missing
		closing, // gossips, an update, a digest and a heartbeat
	}

	type outcome struct {
		Delivered  []event.ID
		FEC        FECStats
		Match      core.MatchStats
		Membership uint64
	}
	run := func(shape func(wire.Batch) any) outcome {
		n, err := New(newQueueTransport(1), Config{
			Addr: space.AddressAt(0), Space: space,
			R: 2, F: 3, C: 2,
			Subscription: subEq(7),
			FECSources:   4, FECRepairs: 2,
			SuspectAfter: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		n.Membership().Apply(roster)
		for _, b := range envelopes {
			n.HandleEnvelope(transport.Envelope{From: sender, To: n.Addr(), Payload: shape(b)})
		}
		for i := 0; i <= fecReviveDelay; i++ {
			n.TickGossip() // the recovered gossip re-enters
		}
		out := outcome{FEC: n.FECStats(), Match: n.MatchStats(), Membership: n.Membership().Version()}
		out.Match.Nanos = 0 // wall time
		for len(n.Deliveries()) > 0 {
			out.Delivered = append(out.Delivered, (<-n.Deliveries()).ID())
		}
		return out
	}
	memory := run(func(b wire.Batch) any { return b })
	udp := run(func(b wire.Batch) any {
		frame, err := wire.AppendBatch(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		return transport.Raw{Frame: frame}
	})
	if !reflect.DeepEqual(memory, udp) {
		t.Errorf("in-memory ingress ended at\n%+v\nUDP ingress at\n%+v", memory, udp)
	}
	if len(memory.Delivered) != 9 || memory.FEC.Recovered != 1 {
		t.Errorf("the envelopes must exercise delivery and recovery: %+v", memory)
	}
}
