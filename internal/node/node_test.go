package node

import (
	"testing"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/interest"
	"pmcast/internal/membership"
	"pmcast/internal/transport"
	"pmcast/internal/tree"
	"pmcast/internal/wire"
)

// cluster spins up one node per address with the given subscription chooser
// and fully meshes their membership via join + anti-entropy. It works over
// any transport backend.
func cluster(t *testing.T, net transport.Transport, space addr.Space, addrs []addr.Address,
	subFor func(addr.Address) interest.Subscription) []*Node {
	t.Helper()
	nodes := make([]*Node, len(addrs))
	for i, a := range addrs {
		n, err := New(net, Config{
			Addr:               a,
			Space:              space,
			R:                  2,
			F:                  3,
			C:                  2,
			Subscription:       subFor(a),
			GossipInterval:     4 * time.Millisecond,
			MembershipInterval: 6 * time.Millisecond,
			SuspectAfter:       time.Hour, // off unless a test shortens it
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
	// Bootstrap: everyone joins through node 0.
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
	return nodes
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func gridAddrs(space addr.Space, count int) []addr.Address {
	out := make([]addr.Address, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, space.AddressAt(i))
	}
	return out
}

func subEq(val int64) interest.Subscription {
	return interest.NewSubscription().Where("b", interest.EqInt(val))
}

// TestJoinAndLeaveAreCharged: Join and Leave send around emit — Leave's
// announcements must be on the fabric before Stop — and their envelopes must
// still reach the node's wire accounting, each at its walked size.
func TestJoinAndLeaveAreCharged(t *testing.T) {
	net := transport.MustNetwork(transport.Config{})
	space := addr.MustRegular(4, 1)
	mk := func(i int) *Node {
		n, err := New(net, Config{Addr: space.AddressAt(i), Space: space, R: 1, F: 1, C: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Stop() })
		return n
	}
	joiner, contact := mk(0), mk(1)
	if err := joiner.Join(contact.Addr()); err != nil {
		t.Fatal(err)
	}
	env, bytes := joiner.WireStats()
	if want := int64(wire.EncodedSize(joiner.mem.BuildJoinRequest())); env != 1 || bytes != want {
		t.Fatalf("after Join: %d envelopes, %d bytes; want 1 and %d", env, bytes, want)
	}
	for joiner.PumpInbox()+contact.PumpInbox() > 0 {
	}
	neighbors := len(joiner.mem.ImmediateNeighbors())
	if neighbors == 0 {
		t.Fatal("the joiner learned no neighbor to announce its leave to")
	}
	env, bytes = joiner.WireStats()
	joiner.Leave()
	self, _ := recordOf(joiner.mem, joiner.Addr())
	size := int64(wire.EncodedSize(membership.Leave{Addr: joiner.Addr(), Stamp: self.Stamp}))
	gotEnv, gotBytes := joiner.WireStats()
	if gotEnv-env != int64(neighbors) || gotBytes-bytes != int64(neighbors)*size {
		t.Errorf("Leave charged %d envelopes, %d bytes; want %d and %d",
			gotEnv-env, gotBytes-bytes, neighbors, int64(neighbors)*size)
	}
}

func TestPublishReachesInterestedOnly(t *testing.T) {
	net := transport.MustNetwork(transport.Config{})
	space := addr.MustRegular(3, 2)
	// Members of subtree 0 and 1 want b=1; subtree 2 wants b=2.
	subFor := func(a addr.Address) interest.Subscription {
		if a.Digit(1) < 2 {
			return subEq(1)
		}
		return subEq(2)
	}
	nodes := cluster(t, net, space, gridAddrs(space, 9), subFor)

	id, err := nodes[8].Publish(map[string]event.Value{"b": event.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if id.Seq != 1 {
		t.Errorf("seq = %d", id.Seq)
	}
	// All six interested nodes deliver.
	for _, n := range nodes[:6] {
		n := n
		waitFor(t, 5*time.Second, func() bool {
			select {
			case ev := <-n.Deliveries():
				if ev.ID() != id {
					t.Errorf("node %s delivered wrong event %v", n.Addr(), ev.ID())
				}
				return true
			default:
				return false
			}
		}, "delivery at "+n.Addr().String())
	}
	// The uninterested never deliver (give gossip time to settle).
	time.Sleep(100 * time.Millisecond)
	for _, n := range nodes[6:] {
		select {
		case ev := <-n.Deliveries():
			t.Errorf("uninterested node %s delivered %v", n.Addr(), ev)
		default:
		}
	}
}

func TestExactlyOnceDelivery(t *testing.T) {
	net := transport.MustNetwork(transport.Config{})
	space := addr.MustRegular(3, 1)
	nodes := cluster(t, net, space, gridAddrs(space, 3), func(addr.Address) interest.Subscription {
		return subEq(7)
	})
	id, err := nodes[0].Publish(map[string]event.Value{"b": event.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(nodes))
	deadline := time.After(500 * time.Millisecond)
	for i := 0; i < len(nodes); {
		select {
		case ev := <-nodes[i].Deliveries():
			if ev.ID() == id {
				counts[i]++
			}
		case <-deadline:
			i = len(nodes)
		default:
			time.Sleep(time.Millisecond)
			if counts[i] > 0 {
				i++
			}
		}
	}
	time.Sleep(50 * time.Millisecond)
	for i, n := range nodes {
		// Drain any extras.
		for {
			select {
			case ev := <-n.Deliveries():
				if ev.ID() == id {
					counts[i]++
				}
				continue
			default:
			}
			break
		}
		if counts[i] != 1 {
			t.Errorf("node %d delivered %d times", i, counts[i])
		}
	}
}

func TestSubscribeChangesRouting(t *testing.T) {
	net := transport.MustNetwork(transport.Config{})
	space := addr.MustRegular(4, 1)
	nodes := cluster(t, net, space, gridAddrs(space, 4), func(addr.Address) interest.Subscription {
		return subEq(1)
	})
	// Node 3 switches interests to b=2.
	nodes[3].Subscribe(subEq(2))
	// Wait for the new subscription to propagate to the publisher.
	waitFor(t, 5*time.Second, func() bool {
		rec, ok := recordOf(nodes[0].Membership(), nodes[3].Addr())
		return ok && rec.Stamp >= 2
	}, "subscription propagation")

	if _, err := nodes[0].Publish(map[string]event.Value{"b": event.Int(2)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		select {
		case <-nodes[3].Deliveries():
			return true
		default:
			return false
		}
	}, "resubscribed delivery")
}

func TestLeaveTombstonesAcrossCluster(t *testing.T) {
	net := transport.MustNetwork(transport.Config{})
	space := addr.MustRegular(4, 1)
	nodes := cluster(t, net, space, gridAddrs(space, 4), func(addr.Address) interest.Subscription {
		return subEq(1)
	})
	nodes[2].Leave()
	waitFor(t, 5*time.Second, func() bool {
		return nodes[0].KnownMembers() == 3 &&
			nodes[1].KnownMembers() == 3 &&
			nodes[3].KnownMembers() == 3
	}, "leave propagation")
}

func TestFailureDetectionExpelsSilentNeighbor(t *testing.T) {
	net := transport.MustNetwork(transport.Config{})
	space := addr.MustRegular(3, 1)
	addrs := gridAddrs(space, 3)
	nodes := make([]*Node, len(addrs))
	for i, a := range addrs {
		n, err := New(net, Config{
			Addr:               a,
			Space:              space,
			R:                  2,
			F:                  2,
			Subscription:       subEq(1),
			GossipInterval:     4 * time.Millisecond,
			MembershipInterval: 5 * time.Millisecond,
			SuspectAfter:       60 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
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
		return nodes[0].KnownMembers() == 3 && nodes[1].KnownMembers() == 3
	}, "initial convergence")

	// Kill node 2 without a leave; the others must expel it.
	nodes[2].Stop()
	waitFor(t, 5*time.Second, func() bool {
		return nodes[0].KnownMembers() == 2 && nodes[1].KnownMembers() == 2
	}, "failure detection")
}

func TestPublishAfterStop(t *testing.T) {
	net := transport.MustNetwork(transport.Config{})
	space := addr.MustRegular(2, 1)
	n, err := New(net, Config{
		Addr: space.AddressAt(0), Space: space, R: 1, F: 1,
		Subscription: subEq(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	n.Stop()
	if _, err := n.Publish(map[string]event.Value{"b": event.Int(1)}); err == nil {
		t.Error("publish after stop accepted")
	}
	n.Stop() // idempotent
}

func TestPartitionHealsAndMembershipReconverges(t *testing.T) {
	net := transport.MustNetwork(transport.Config{})
	space := addr.MustRegular(4, 1)
	nodes := cluster(t, net, space, gridAddrs(space, 4), func(addr.Address) interest.Subscription {
		return subEq(1)
	})
	// Partition node 3 from everyone; events published meanwhile miss it.
	for _, n := range nodes[:3] {
		net.BlockBidirectional(n.Addr(), nodes[3].Addr())
	}
	if _, err := nodes[0].Publish(map[string]event.Value{"b": event.Int(1)}); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes[1:3] {
		n := n
		waitFor(t, 5*time.Second, func() bool {
			select {
			case <-n.Deliveries():
				return true
			default:
				return false
			}
		}, "delivery on majority side")
	}
	select {
	case ev := <-nodes[3].Deliveries():
		t.Fatalf("partitioned node delivered %v", ev)
	case <-time.After(60 * time.Millisecond):
	}
	// Heal: anti-entropy reconverges and new events reach node 3 again.
	net.Heal()
	if _, err := nodes[0].Publish(map[string]event.Value{"b": event.Int(1)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		select {
		case <-nodes[3].Deliveries():
			return true
		default:
			return false
		}
	}, "post-heal delivery")
}

func TestLossyNetworkStillDelivers(t *testing.T) {
	net := transport.MustNetwork(transport.Config{Loss: 0.2, Seed: 5})
	space := addr.MustRegular(3, 2)
	nodes := cluster(t, net, space, gridAddrs(space, 9), func(addr.Address) interest.Subscription {
		return subEq(1)
	})
	// Publish several events; gossip redundancy should beat 20% loss.
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
		}, "lossy delivery at "+n.Addr().String())
	}
}

// TestBadDepthGossipDoesNotPoisonEvent: the wire codec cannot know the tree
// depth, so a garbled or forged gossip can carry Depth 0 or > D. The protocol
// rejects that copy; it must not also make the node drop every later valid
// copy of the same event — bare or inside a round envelope.
func TestBadDepthGossipDoesNotPoisonEvent(t *testing.T) {
	space := addr.MustRegular(3, 2)
	n, err := New(transport.MustNetwork(transport.Config{}), Config{
		Addr: space.AddressAt(0), Space: space,
		R: 2, F: 3, C: 2,
		Subscription: subEq(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	envelope := func(payload any) transport.Envelope {
		return transport.Envelope{From: space.AddressAt(1), To: n.Addr(), Payload: payload}
	}
	for seq, wrap := range []func(core.Gossip) any{
		func(g core.Gossip) any { return g },
		func(g core.Gossip) any { return wire.Batch{Gossips: []core.Gossip{g}} },
	} {
		ev := event.NewBuilder().Int("b", 1).Build(event.ID{Origin: "x", Seq: uint64(seq + 1)})
		for _, depth := range []int{0, space.Depth() + 1} {
			n.HandleEnvelope(envelope(wrap(core.Gossip{Event: ev, Depth: depth, Rate: 1})))
			select {
			case got := <-n.Deliveries():
				t.Fatalf("depth-%d gossip delivered %v", depth, got.ID())
			default:
			}
		}
		n.HandleEnvelope(envelope(wrap(core.Gossip{Event: ev, Depth: 1, Rate: 1})))
		select {
		case got := <-n.Deliveries():
			if got.ID() != ev.ID() {
				t.Errorf("delivered %v, want %v", got.ID(), ev.ID())
			}
		default:
			t.Errorf("valid copy of %v dropped after a bad-depth copy", ev.ID())
		}
	}
}

// TestRebuildFoldsRepeatedChangelogKeyOnce: the changelog logs a line once
// per change, and the tree — the only record of what was folded — does not
// move until ApplyDelta. A line that changed twice between rebuilds must be
// folded once, from its current record: a join followed by a stamp bump is
// one Add (two would be a duplicate member), two fluxes are one Update, and
// a join followed by a leave is nothing at all.
func TestRebuildFoldsRepeatedChangelogKeyOnce(t *testing.T) {
	space := addr.MustRegular(3, 2)
	n, err := New(transport.MustNetwork(transport.Config{}), Config{
		Addr: space.AddressAt(0), Space: space,
		R: 2, F: 3, C: 2,
		Subscription: subEq(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	self, peer, ghost := n.Addr(), space.AddressAt(4), space.AddressAt(7)
	apply := func(r membership.Record) {
		t.Helper()
		if n.Membership().Apply(membership.Update{From: r.Addr, Records: []membership.Record{r}}) != 1 {
			t.Fatalf("record %s@%d did not apply", r.Addr, r.Stamp)
		}
	}
	// rebuild checks that a moved at least twice since the last fold yet is
	// handed out once, folds it, and returns the tree's answer for a.
	rebuild := func(a addr.Address) (tree.Member, bool) {
		t.Helper()
		recs, ok := n.Membership().ChangedSince(n.treeVersion)
		if !ok {
			t.Fatal("changelog does not reach back to the last fold")
		}
		if moves := n.Membership().Version() - n.treeVersion; moves < 2 {
			t.Fatalf("membership moved %d times since the last fold; the test needs a repeat", moves)
		}
		mentions := 0
		for _, r := range recs {
			if r.Addr.Equal(a) {
				mentions++
			}
		}
		if mentions != 1 || len(recs) != 1 {
			t.Fatalf("%s is handed out %d times in %d records; want it alone, once", a, mentions, len(recs))
		}
		if err := n.WarmViews(); err != nil {
			t.Fatalf("rebuild with %s repeated: %v", a, err)
		}
		return n.tree.Member(a)
	}

	apply(membership.Record{Addr: peer, Sub: subEq(2), Stamp: 1, Alive: true})
	apply(membership.Record{Addr: peer, Sub: subEq(2), Stamp: 2, Alive: true})
	if m, ok := rebuild(peer); !ok || m.Sub.Identity() != subEq(2).Identity() || n.tree.Len() != 2 {
		t.Errorf("join + stamp bump: member %v (present %v), tree holds %d; want the peer once", m, ok, n.tree.Len())
	}

	n.Subscribe(subEq(3))
	n.Subscribe(subEq(4))
	if m, ok := rebuild(self); !ok || m.Sub.Identity() != subEq(4).Identity() {
		t.Errorf("two fluxes: tree holds %v (present %v); want the last subscription", m, ok)
	}

	apply(membership.Record{Addr: ghost, Sub: subEq(5), Stamp: 1, Alive: true})
	apply(membership.Record{Addr: ghost, Stamp: 2, Alive: false})
	if _, ok := rebuild(ghost); ok || n.tree.Len() != 2 {
		t.Errorf("join + leave: ghost present %v, tree holds %d; want it never folded", ok, n.tree.Len())
	}
}

// recordOf returns the record a membership service holds for an address.
func recordOf(s *membership.Service, a addr.Address) (rec membership.Record, ok bool) {
	s.VisitRecords(func(r membership.Record) {
		if r.Addr.Equal(a) {
			rec, ok = r, true
		}
	})
	return rec, ok
}
