package node

import (
	"fmt"
	"testing"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/fec"
	"pmcast/internal/interest"
	"pmcast/internal/membership"
	"pmcast/internal/transport"
	"pmcast/internal/tree"
	"pmcast/internal/wire"
)

// hostileSpace is the space of the hostile-ingress tests: nine processes, all
// subscribed to b=1.
var hostileSpace = addr.MustRegular(3, 2)

// rosterNode builds a step-mode node at hostileSpace's first address over a
// roster of the whole space.
func rosterNode(tb testing.TB) *Node {
	return rosterNodeAt(tb, transport.MustNetwork(transport.Config{}), 0, 0)
}

// rosterNodeAt builds a step-mode node at hostileSpace's i-th address on net
// over a roster of the whole space, coding with fecRepairs repairs per
// generation (0: no coding layer).
func rosterNodeAt(tb testing.TB, net transport.Transport, i, fecRepairs int) *Node {
	tb.Helper()
	recs := oracleRecords(hostileSpace, hostileSpace.Capacity(), func(addr.Address) interest.Subscription { return subEq(1) }).Records
	roster, err := membership.NewRoster(recs)
	if err != nil {
		tb.Fatal(err)
	}
	n, err := New(net, Config{
		Addr: hostileSpace.AddressAt(i), Space: hostileSpace,
		R: 2, F: 3, C: 2,
		Subscription:     subEq(1),
		MembershipRoster: roster,
		FECRepairs:       fecRepairs,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { n.Stop() })
	return n
}

// deliversFresh hands the node a well-formed depth-1 gossip of an event it
// has not seen, from a roster peer, and reports whether it was delivered.
func deliversFresh(n *Node, seq uint64) bool {
	id := event.ID{Origin: "probe", Seq: seq}
	n.mu.Lock()
	for n.proc != nil && n.proc.HasSeen(id) {
		id.Seq++
	}
	n.mu.Unlock()
	ev := event.NewBuilder().Int("b", 1).Build(id)
	n.HandleEnvelope(transport.Envelope{From: hostileSpace.AddressAt(1), To: n.Addr(),
		Payload: core.Gossip{Event: ev, Depth: 1, Rate: 1}})
	delivered := false
	for {
		select {
		case got := <-n.Deliveries():
			delivered = delivered || got.ID() == id
		default:
			return delivered
		}
	}
}

// wireDecoded round-trips a message through the codec: what a receiver holds
// after a datagram carrying it.
func wireDecoded(tb testing.TB, msg any) wire.Batch {
	tb.Helper()
	frame, err := wire.Encode(msg)
	if err != nil {
		tb.Fatal(err)
	}
	payload, err := wire.NewDecoder().Decode(frame)
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}

// poisonUpdate is the Update that stopped a node for good before admission
// checked the space: one alive record at an address one digit too deep.
var poisonUpdate = membership.Update{
	From:    hostileSpace.AddressAt(1),
	Records: []membership.Record{{Addr: addr.New(0, 0, 0), Sub: subEq(1), Stamp: 1, Alive: true}},
}

// TestOutOfSpaceRecordDoesNotStopNode: a record whose address the space
// cannot hold — too deep, a digit past its arity, a forged joiner — used to
// reach tree.ApplyDelta, which refuses the Add. The rebuild dropped the tree,
// and every later rebuild folded the same record and failed again: the node
// delivered nothing ever after, and anti-entropy carried the record to every
// peer. Admission refuses such records now; the node keeps delivering and
// its membership does not move.
func TestOutOfSpaceRecordDoesNotStopNode(t *testing.T) {
	forged := membership.Record{Addr: addr.New(7, 7), Sub: subEq(1), Stamp: 1, Alive: true}
	for name, msg := range map[string]wire.Batch{
		"too deep":        {Update: &poisonUpdate},
		"digit too large": {Update: &membership.Update{From: hostileSpace.AddressAt(1), Records: []membership.Record{{Addr: addr.New(1, 3), Sub: subEq(1), Stamp: 1, Alive: true}}}},
		"forged joiner":   {Join: &membership.JoinRequest{Joiner: forged, Hops: 2}},
	} {
		t.Run(name, func(t *testing.T) {
			n := rosterNode(t)
			if !deliversFresh(n, 1) {
				t.Fatal("the fresh node does not deliver")
			}
			version := n.Membership().Version()
			n.HandleEnvelope(transport.Envelope{From: hostileSpace.AddressAt(1), To: n.Addr(), Payload: wireDecoded(t, msg)})
			for k := uint64(2); k <= 5; k++ {
				if !deliversFresh(n, k) {
					t.Fatalf("gossip %d after the %s record was not delivered (tree nil: %v, tree version %d, membership %d)",
						k, name, n.tree == nil, n.treeVersion, n.Membership().Version())
				}
			}
			if v := n.Membership().Version(); v != version {
				t.Errorf("membership moved %d → %d on a refused record", version, v)
			}
		})
	}
}

// TestRefusedJoinerGetsNoReply: a forged JoinRequest for an address outside
// the space is refused before anything is built, so the node emits nothing —
// no full-view reply to the forged address and no forward — for the few bytes
// the request costs its sender. Behind a gossip in the same batch, the join
// is refused just the same while the gossip is delivered.
func TestRefusedJoinerGetsNoReply(t *testing.T) {
	n := rosterNode(t)
	for i, joiner := range []addr.Address{addr.New(7, 7), addr.New(0, 0, 0), addr.New(1)} {
		req := membership.JoinRequest{Joiner: membership.Record{Addr: joiner, Sub: subEq(1), Stamp: 1, Alive: true}, Hops: 2}
		id := event.ID{Origin: "joiner", Seq: uint64(i + 1)}
		withGossip := wire.Batch{Gossips: []core.Gossip{{Event: event.NewBuilder().Int("b", 1).Build(id), Depth: 1, Rate: 1}}, Join: &req}
		for name, msg := range map[string]wire.Batch{"alone": {Join: &req}, "behind a gossip": withGossip} {
			before, _ := n.WireStats()
			n.HandleEnvelope(transport.Envelope{From: hostileSpace.AddressAt(1), To: n.Addr(), Payload: wireDecoded(t, msg)})
			if after, _ := n.WireStats(); after != before {
				t.Errorf("a forged join for %s %s made the node emit %d envelopes, want 0", joiner, name, after-before)
			}
		}
		if got := drainIDs(n); len(got) != 1 || got[0] != id {
			t.Errorf("the gossip beside the forged join for %s delivered %v, want [%v]", joiner, got, id)
		}
	}
}

// drainIDs returns the IDs of every delivery the node has queued.
func drainIDs(n *Node) (ids []event.ID) {
	for {
		select {
		case got := <-n.Deliveries():
			ids = append(ids, got.ID())
		default:
			return ids
		}
	}
}

// TestLeaveCountsOnlyFromTheLeaver: a Leave tombstones the process it names
// only when that process sent it. A third party's Leave for a live neighbor
// is ignored — applied, it would tombstone the neighbor, and anti-entropy
// would carry the tombstone fleet-wide — alone or riding a valid round
// envelope, whose gossips are still delivered; the neighbor's own Leave
// still tombstones it.
func TestLeaveCountsOnlyFromTheLeaver(t *testing.T) {
	net := transport.MustNetwork(transport.Config{})
	n, leaver := rosterNodeAt(t, net, 0, 0), rosterNodeAt(t, net, 1, 0)
	forged := membership.Leave{Addr: leaver.Addr(), Stamp: 9}
	id := event.ID{Origin: hostileSpace.AddressAt(2).Key(), Seq: 1}
	round := wire.Batch{Gossips: []core.Gossip{{Event: event.NewBuilder().Int("b", 1).Build(id), Depth: 1, Rate: 1}}, Leave: &forged}
	for name, msg := range map[string]wire.Batch{"alone": {Leave: &forged}, "on a round envelope": round} {
		n.HandleEnvelope(transport.Envelope{From: hostileSpace.AddressAt(2), To: n.Addr(), Payload: wireDecoded(t, msg)})
		if rec, _ := recordOf(n.mem, leaver.Addr()); !rec.Alive {
			t.Fatalf("a third party's Leave %s tombstoned %s: %+v", name, leaver.Addr(), rec)
		}
	}
	if got := drainIDs(n); len(got) != 1 || got[0] != id {
		t.Errorf("the round envelope carrying a forged Leave delivered %v, want [%v]", got, id)
	}
	leaver.Leave()
	if n.PumpInbox() == 0 {
		t.Fatal("the leaver's announcement did not arrive")
	}
	if rec, _ := recordOf(n.mem, leaver.Addr()); rec.Alive {
		t.Errorf("the leaver's own Leave left it alive: %+v", rec)
	}
}

// TestForgedFutureSeqKeepsOriginDelivering: a forged gossip carrying a live
// origin's ID with sequence number 2^63 must not poison the seen-set — no
// high-water mark jumps past the origin's real stream — so every real event
// it publishes afterwards is delivered, past its first bitmap window too, and
// the origin's seen state stays one bitmap plus the forged number.
func TestForgedFutureSeqKeepsOriginDelivering(t *testing.T) {
	n := rosterNode(t)
	origin := hostileSpace.AddressAt(1)
	gossip := func(seq uint64) transport.Envelope {
		ev := event.NewBuilder().Int("b", 1).Build(event.ID{Origin: origin.Key(), Seq: seq})
		return transport.Envelope{From: origin, To: n.Addr(), Payload: core.Gossip{Event: ev, Depth: 1, Rate: 1}}
	}
	forged := gossip(1 << 63)
	forged.Payload = wireDecoded(t, forged.Payload)
	n.HandleEnvelope(forged)
	drainIDs(n)
	const real = 5_000 // more than one 4 096-number window
	for seq := uint64(1); seq <= real; seq++ {
		n.HandleEnvelope(gossip(seq))
		if got := drainIDs(n); len(got) != 1 || got[0] != (event.ID{Origin: origin.Key(), Seq: seq}) {
			t.Fatalf("real event %d after a forged 2^63: delivered %v", seq, got)
		}
	}
	n.mu.Lock()
	words, far := n.proc.SeenOccupancy(origin.Key())
	n.mu.Unlock()
	if words > 64 || far != 1 {
		t.Errorf("the origin's seen state holds %d bitmap words and %d far chunks, want ≤ 64 and 1", words, far)
	}
}

// TestFoldAcrossRebaseMatchesBuild: a node that starts alone folds its table
// into its tree, then admits a batch that moves a known line and carries
// three strangers, one listed twice. The batch rebases its membership; the
// fold across the rebase must leave the tree tree.Build makes of the
// resulting members.
func TestFoldAcrossRebaseMatchesBuild(t *testing.T) {
	space := addr.MustRegular(4, 3)
	n, err := New(transport.MustNetwork(transport.Config{}), Config{
		Addr: space.AddressAt(5), Space: space, R: 2, F: 3, C: 2,
		Subscription: subEq(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	rec := func(i int, sub int64, stamp uint64, alive bool) membership.Record {
		return membership.Record{Addr: space.AddressAt(i), Sub: subEq(sub), Stamp: stamp, Alive: alive}
	}
	n.Membership().Apply(membership.Update{Records: []membership.Record{rec(6, 2, 1, true), rec(40, 3, 1, true)}})
	if err := n.WarmViews(); err != nil {
		t.Fatal(err)
	}
	n.Membership().Apply(membership.Update{Records: []membership.Record{
		rec(33, 4, 1, true),
		rec(6, 5, 2, true), // a known line moves
		rec(62, 6, 1, true),
		rec(33, 7, 3, true), // fresher copy of a stranger
		rec(17, 8, 1, false),
		rec(40, 3, 2, false), // a known line dies
	}})
	if err := n.WarmViews(); err != nil {
		t.Fatal(err)
	}

	var members []tree.Member
	n.Membership().VisitRecords(func(r membership.Record) {
		if r.Alive {
			members = append(members, tree.Member{Addr: r.Addr, Sub: r.Sub})
		}
	})
	if len(members) != 4 {
		t.Fatalf("%d alive members, want 4 (self, 6, 33, 62)", len(members))
	}
	ref, err := tree.Build(tree.Config{Space: space, R: 2}, members)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderTree(n.tree, space), renderTree(ref, space); got != want {
		t.Errorf("folded across the rebase:\n%s\nbuilt from scratch:\n%s", got, want)
	}
}

// renderTree lists a tree's members and, for every view on their paths, each
// line's count, delegates and summary, disjuncts in accumulation order.
func renderTree(tr *tree.Tree, space addr.Space) string {
	out := ""
	for i := 0; i < space.Capacity(); i++ {
		a := space.AddressAt(i)
		m, ok := tr.Member(a)
		if !ok {
			continue
		}
		out += fmt.Sprintf("%s %v\n", a, m.Sub.Identity())
		for depth := 1; depth <= space.Depth(); depth++ {
			for _, l := range tr.ViewAt(a, depth).Lines {
				out += fmt.Sprintf("  %s/%d count=%d delegates=%v summary=%s\n", a.Prefix(depth), l.Infix, l.Count, l.Delegates, l.Summary)
			}
		}
	}
	return out
}

// forgedRepairBatch is a round envelope whose one gossip is listed, beside
// an event never sent, in a forged generation with one garbage repair: the
// coding node solves for the missing source and must discard what it gets.
func forgedRepairBatch() wire.Batch {
	sent := event.NewBuilder().Int("b", 1).Build(event.ID{Origin: hostileSpace.AddressAt(1).Key(), Seq: 1})
	never := event.ID{Origin: hostileSpace.AddressAt(2).Key(), Seq: 7}
	meta := fec.Meta{Depth: 1, Rate: 1}
	return wire.Batch{
		Gossips: []core.Gossip{{Event: sent, Depth: 1, Rate: 1}},
		FEC: []fec.Generation{{
			Gen: 1, K: 2, R: 1, SymLen: 24,
			IDs:     []event.ID{sent.ID(), never},
			Meta:    []fec.Meta{meta, meta},
			Repairs: []fec.RepairSymbol{{Index: 0, Data: []byte("twenty-four garbage byte")}},
		}},
	}
}

// FuzzHostileMembershipKeepsDelivering hands a step-mode node whatever
// arbitrary bytes decode to, from a roster peer, then re-asserts the node's
// own subscription — a forged fresher line for self may legitimately
// replace it — and demands a well-formed gossip still be delivered: no
// decodable message may stop a node for good. Every frame goes to a node
// without the coding layer and to one with it, whose coder takes in the
// forged generations and repairs the frame may carry. Every input, a frame
// that does not decode included, also goes to a fresh pair of nodes as a
// transport.Raw, the way UDP hands frames over, so the node's own lazy
// decode (DecodeLazy, the seen-set read by bytes, the section build) meets
// the same bytes.
func FuzzHostileMembershipKeepsDelivering(f *testing.F) {
	for _, msg := range []wire.Batch{
		{Update: &poisonUpdate},
		{Update: &membership.Update{From: hostileSpace.AddressAt(2), Records: []membership.Record{
			{Addr: hostileSpace.AddressAt(4), Sub: subEq(2), Stamp: 3, Alive: true},
			{Addr: hostileSpace.AddressAt(5), Stamp: 2, Alive: false},
		}}},
		{Join: &membership.JoinRequest{Joiner: membership.Record{Addr: addr.New(1, 3), Sub: subEq(1), Stamp: 1, Alive: true}, Hops: 2}},
		{Leave: &membership.Leave{Addr: addr.New(2, 2, 2), Stamp: 9}},
		{Heartbeat: &membership.Heartbeat{}},
		forgedRepairBatch(),
	} {
		frame, err := wire.Encode(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, repairs := range []int{0, 1} {
			n := rosterNodeAt(t, transport.MustNetwork(transport.Config{}), 0, repairs)
			raw := transport.Raw{Frame: append([]byte(nil), frame...)} // the node may keep what it decodes
			n.HandleEnvelope(transport.Envelope{From: hostileSpace.AddressAt(1), To: n.Addr(), Payload: raw})
			n.Subscribe(subEq(1))
			if !deliversFresh(n, 1) {
				t.Fatalf("FECRepairs=%d: a well-formed gossip was not delivered after the raw frame %x (tree nil: %v)",
					repairs, frame, n.tree == nil)
			}
		}
		if _, err := wire.NewDecoder().Decode(frame); err != nil {
			return
		}
		for _, repairs := range []int{0, 1} {
			n := rosterNodeAt(t, transport.MustNetwork(transport.Config{}), 0, repairs)
			payload, _ := wire.NewDecoder().Decode(frame) // each node gets its own copy
			n.HandleEnvelope(transport.Envelope{From: hostileSpace.AddressAt(1), To: n.Addr(), Payload: payload})
			n.Subscribe(subEq(1))
			if !deliversFresh(n, 1) {
				t.Fatalf("FECRepairs=%d: a well-formed gossip was not delivered after %T %+v (tree nil: %v)",
					repairs, payload, payload, n.tree == nil)
			}
		}
	})
}
