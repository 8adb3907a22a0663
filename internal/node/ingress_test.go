package node

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/fec"
	"pmcast/internal/interest"
	"pmcast/internal/membership"
	"pmcast/internal/transport"
	"pmcast/internal/transport/udp"
	"pmcast/internal/wire"
)

// TestIngressParityAcrossFabrics: a round envelope is one value on every
// fabric, so a node fed the same envelopes as the in-memory fabric hands them
// over (wire.Batch values) and as the UDP fabric does (frames for the node to
// decode) must end in the same state: the same deliveries in the same order,
// coding-layer and matching counters, and membership version. A frame's
// sections are built only when the seen-set lacks them, so the envelopes
// carry every kind of duplicate — an envelope sent twice, a section twice in
// one envelope, the node's own event relayed back — and sections that arrive
// across a view rebuild, with coding on and off.
func TestIngressParityAcrossFabrics(t *testing.T) {
	space := addr.MustRegular(3, 2)
	sender := space.AddressAt(5)
	self := space.AddressAt(0)
	roster := oracleRecords(space, space.Capacity(), func(addr.Address) interest.Subscription { return subEq(7) })
	g := func(seq uint64) core.Gossip { return fecGossip(sender.Key(), seq) }

	coded := make([]core.Gossip, 4)
	srcs := make([]fec.Source, len(coded))
	for i := range coded {
		coded[i] = g(uint64(10 + i))
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
	plain := wire.Batch{Gossips: []core.Gossip{g(1), g(2), g(3)}}
	closing := probe()
	closing.Gossips = []core.Gossip{g(20), g(21), g(1)}
	closing.Update = &membership.Update{From: sender, Records: []membership.Record{moved}}
	envelopes := []wire.Batch{
		plain,
		plain,   // the same envelope again: every section a duplicate
		probe(), // membership only
		{Gossips: []core.Gossip{g(4), g(5), g(4)}},                                         // a section twice in one envelope
		{Gossips: []core.Gossip{fecGossip(self.Key(), 1), g(6)}},                           // the node's own event relayed back
		{Gossips: []core.Gossip{coded[0], coded[1], coded[3]}, FEC: []fec.Generation{gen}}, // coded, a symbol missing
		closing, // gossips, an update, a digest and a heartbeat
		{Gossips: []core.Gossip{g(20), g(22), g(21), g(23)}}, // across the rebuild closing's update forces
	}

	type outcome struct {
		Delivered  []event.ID
		FEC        fec.Stats
		Match      core.MatchStats
		Membership uint64
		Malformed  int64
	}
	for _, tc := range []struct {
		name      string
		repairs   int
		delivered int
	}{
		{"coded", 2, 15}, // the node's own event, 13 arrivals and a recovery
		{"uncoded", 0, 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(shape func(wire.Batch) any) outcome {
				n, err := New(newQueueTransport(1), Config{
					Addr: self, Space: space,
					R: 2, F: 3, C: 2,
					Subscription: subEq(7),
					FECSources:   4, FECRepairs: tc.repairs,
					SuspectAfter: time.Hour,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer n.Stop()
				n.Membership().Apply(roster)
				if _, err := n.Publish(map[string]event.Value{"b": event.Int(7)}); err != nil {
					t.Fatal(err)
				}
				for _, b := range envelopes {
					n.HandleEnvelope(transport.Envelope{From: sender, To: n.Addr(), Payload: shape(b)})
				}
				for i := 0; i < 10 && len(n.Deliveries()) < tc.delivered; i++ {
					n.TickGossip() // until the recovered gossip re-enters
				}
				out := outcome{FEC: n.FECStats(), Match: n.MatchStats(), Membership: n.Membership().Version()}
				out.Match.Nanos = 0 // wall time
				_, out.Malformed = n.EngineStats()
				for len(n.Deliveries()) > 0 {
					out.Delivered = append(out.Delivered, (<-n.Deliveries()).ID())
				}
				return out
			}
			memory := run(func(b wire.Batch) any { return b })
			udp := run(func(b wire.Batch) any { return transport.Raw{Frame: batchFrame(t, b)} })
			if !reflect.DeepEqual(memory, udp) {
				t.Errorf("in-memory ingress ended at\n%+v\nUDP ingress at\n%+v", memory, udp)
			}
			if len(memory.Delivered) != tc.delivered || memory.FEC.Recovered != int64(tc.delivered-14) {
				t.Errorf("the envelopes must exercise delivery and recovery: %+v", memory)
			}
		})
	}
}

// batchFrame encodes a round envelope as a byte fabric carries it.
func batchFrame(tb testing.TB, b wire.Batch) []byte {
	tb.Helper()
	return wire.AppendBatch(nil, b)
}

// TestCorruptDuplicateDropsFrame: a frame is accepted or rejected whole, as
// before sections were built lazily. A corrupt section for an event the node
// already holds would never be built, but the scan still rejects it, so the
// fresh section and the update riding the same frame are dropped with it: the
// frame counts once as malformed, and deliveries and membership do not move.
func TestCorruptDuplicateDropsFrame(t *testing.T) {
	n := rosterNode(t)
	sender := hostileSpace.AddressAt(1)
	gossip := func(seq uint64) core.Gossip {
		ev := event.NewBuilder().Int("b", 1).Build(event.ID{Origin: sender.Key(), Seq: seq})
		return core.Gossip{Event: ev, Depth: 1, Rate: 1}
	}
	n.HandleEnvelope(transport.Envelope{From: sender, To: n.Addr(), Payload: transport.Raw{Frame: batchFrame(t, wire.Batch{Gossips: []core.Gossip{gossip(1)}})}})
	if got := len(n.Deliveries()); got != 1 {
		t.Fatalf("the first copy delivered %d events, want 1", got)
	}
	<-n.Deliveries()
	version := n.Membership().Version()

	moved := membership.Record{Addr: hostileSpace.AddressAt(4), Sub: subEq(2), Stamp: 3, Alive: true}
	frame := batchFrame(t, wire.Batch{
		Gossips: []core.Gossip{gossip(1), gossip(2)},
		Update:  &membership.Update{From: sender, Records: []membership.Record{moved}},
	})
	// The duplicate's only value is b=1: name "b", kind int, zig-zag 1. An
	// unknown kind in its place leaves every length intact.
	at := bytes.Index(frame, []byte{1, 'b', byte(event.KindInt), 2})
	if at < 0 || bytes.Index(frame[at+1:], []byte{1, 'b', byte(event.KindInt), 2}) < 0 {
		t.Fatal("cannot find the sections' attributes in the frame")
	}
	frame[at+2] = 9
	if _, err := wire.NewDecoder().Decode(frame); err == nil {
		t.Fatal("the eager decoder accepts the corrupt frame")
	}
	n.HandleEnvelope(transport.Envelope{From: sender, To: n.Addr(), Payload: transport.Raw{Frame: frame}})
	if _, malformed := n.EngineStats(); malformed != 1 {
		t.Errorf("malformed = %d, want 1", malformed)
	}
	if got := len(n.Deliveries()); got != 0 {
		t.Errorf("the corrupt frame delivered %d events", got)
	}
	if v := n.Membership().Version(); v != version {
		t.Errorf("membership moved %d → %d on a corrupt frame", version, v)
	}
}

// TestGarbledUDPPayloadIsCountedOnceByTheNode: the UDP transport hands every
// frame over undecoded, so a datagram whose sender prefix parses but whose
// payload does not decode is counted once, by the node that decodes it, and
// not by the transport.
func TestGarbledUDPPayloadIsCountedOnceByTheNode(t *testing.T) {
	self := hostileSpace.AddressAt(0)
	res, err := udp.NewStaticResolver(map[string]string{self.String(): "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := udp.New(udp.Config{Resolver: res})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	n, err := New(tr, Config{Addr: self, Space: hostileSpace, R: 2, F: 3, C: 2, Subscription: subEq(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	dst, err := res.Resolve(self)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, dst)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	garbled := append(addr.AppendAddress(nil, hostileSpace.AddressAt(1)), 0xff, 0x01)
	if _, err := conn.Write(garbled); err != nil {
		t.Fatal(err)
	}
	nodeMalformed := func() int64 { _, m := n.EngineStats(); return m }
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		n.PumpInbox()
		if nodeMalformed() > 0 || tr.Stats().Malformed > 0 {
			break
		}
	}
	if got, udpGot := nodeMalformed(), tr.Stats().Malformed; got != 1 || udpGot != 0 {
		t.Errorf("node malformed=%d udp malformed=%d, want 1 and 0", got, udpGot)
	}
}

// TestDuplicateSectionsCostNothing: a frame whose every section the node
// already holds is scanned, never built, so handling one costs the same
// allocations whatever its number of sections — one per section before
// sections were built lazily.
func TestDuplicateSectionsCostNothing(t *testing.T) {
	n := rosterNode(t)
	sender := hostileSpace.AddressAt(1)
	frame := func(sections int) transport.Envelope {
		b := wire.Batch{}
		for seq := 1; seq <= sections; seq++ {
			ev := event.NewBuilder().Int("b", 1).Str("e", "a value").Build(event.ID{Origin: sender.Key(), Seq: uint64(seq)})
			b.Gossips = append(b.Gossips, core.Gossip{Event: ev, Depth: 1, Rate: 1, Round: 2})
		}
		return transport.Envelope{From: sender, To: n.Addr(), Payload: transport.Raw{Frame: batchFrame(t, b)}}
	}
	six, many := frame(6), frame(24)
	n.HandleEnvelope(many) // every event is seen from here on
	if got := len(n.Deliveries()); got != 24 {
		t.Fatalf("the first copies delivered %d events, want 24", got)
	}
	allocs := func(env transport.Envelope) float64 {
		return testing.AllocsPerRun(100, func() { n.HandleEnvelope(env) })
	}
	if a6, a24 := allocs(six), allocs(many); a6 != a24 {
		t.Errorf("an all-duplicate frame allocates %.1f times with 6 sections, %.1f with 24: want the same", a6, a24)
	}
	if got := len(n.Deliveries()); got != 24 {
		t.Errorf("duplicates delivered: %d events in the channel, want 24", got)
	}
}

// TestStageQueueFootprint pins the stage-queue elements. A slot costs its
// element's size while it is occupied, and an idle staged node keeps one
// spare segment of 64 slots per queue (transport.Queue), so a word added to
// either element costs a word per queued message and 64 words per idle
// node.
func TestStageQueueFootprint(t *testing.T) {
	word := unsafe.Sizeof(uintptr(0))
	if got := unsafe.Sizeof(transport.Envelope{}); got != 4*word {
		t.Errorf("transport.Envelope is %d bytes, want %d", got, 4*word)
	}
	if got := unsafe.Sizeof(egressJob{}); got != 3*word {
		t.Errorf("egressJob is %d bytes, want %d", got, 3*word)
	}
}
