package node

import (
	"math"
	"testing"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/membership"
	"pmcast/internal/transport"
	"pmcast/internal/wire"
)

func TestEstimatorZeroTrafficPeers(t *testing.T) {
	e := newLossEstimator()
	if _, ok := e.Estimate("1.2"); ok {
		t.Error("unknown peer reported an estimate")
	}
	// Traffic without a closed window is still no signal: callers must fall
	// back to their configured loss assumption, not read 0.
	e.noteRecv("1.2", 5)
	e.observeBeacon("1.2", 5) // first beacon only anchors the window
	if _, ok := e.Estimate("1.2"); ok {
		t.Error("anchor beacon alone produced an estimate")
	}
	s := e.stats()
	if s.TrackedPeers != 1 || s.MeasuredPeers != 0 {
		t.Errorf("stats = %+v, want 1 tracked / 0 measured", s)
	}
}

func TestEstimatorMeasuresWindows(t *testing.T) {
	e := newLossEstimator()
	e.noteRecv("p", 4)
	e.observeBeacon("p", 4) // anchor: bases = (4, 4)
	// Window 1: peer sends 16 more parts, half arrive.
	e.noteRecv("p", 8)
	e.observeBeacon("p", 20)
	got, ok := e.Estimate("p")
	if !ok || math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("after 8/16 window: est = %v, %v; want 0.5", got, ok)
	}
	// Window 2: lossless 16 parts; EWMA folds to 0.5·0 + 0.5·0.5.
	e.noteRecv("p", 16)
	e.observeBeacon("p", 36)
	if got, _ := e.Estimate("p"); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("after lossless window: est = %v, want 0.25", got)
	}
}

func TestEstimatorShortWindowsAccumulate(t *testing.T) {
	e := newLossEstimator()
	e.observeBeacon("p", 0) // anchor at zero
	// Beacons arriving before lossEstMinWindow parts extend the window
	// instead of sampling noise.
	e.noteRecv("p", 3)
	e.observeBeacon("p", 4)
	if _, ok := e.Estimate("p"); ok {
		t.Fatal("sub-window beacon produced an estimate")
	}
	// The next beacon closes the combined 8-part window: 6 of 8 arrived.
	e.noteRecv("p", 3)
	e.observeBeacon("p", 8)
	if got, ok := e.Estimate("p"); !ok || math.Abs(got-0.25) > 1e-9 {
		t.Errorf("combined window: est = %v, %v; want 0.25", got, ok)
	}
}

func TestEstimatorRejoinResets(t *testing.T) {
	e := newLossEstimator()
	e.observeBeacon("p", 0)
	e.noteRecv("p", 8)
	e.observeBeacon("p", 16) // 8/16: est 0.5
	if _, ok := e.Estimate("p"); !ok {
		t.Fatal("no estimate before the reset")
	}
	// The peer restarts: its counter runs backwards. Stale history would be
	// phantom loss against the new identity — everything resets.
	e.observeBeacon("p", 2)
	if _, ok := e.Estimate("p"); ok {
		t.Error("estimate survived a counter regression")
	}
	// And the estimator re-anchors cleanly: a lossless window after the
	// rejoin reads as lossless.
	e.noteRecv("p", 10)
	e.observeBeacon("p", 12)
	if got, ok := e.Estimate("p"); !ok || got != 0 {
		t.Errorf("post-rejoin lossless window: est = %v, %v; want 0", got, ok)
	}
}

func TestEstimatorClampsReorderedWindows(t *testing.T) {
	e := newLossEstimator()
	e.observeBeacon("p", 0)
	// More arrivals than the beacon accounts for (a beacon overtaken by
	// reordering): loss clamps at 0 rather than going negative.
	e.noteRecv("p", 20)
	e.observeBeacon("p", 10)
	if got, ok := e.Estimate("p"); !ok || got != 0 {
		t.Errorf("est = %v, %v; want 0, true", got, ok)
	}
}

// TestBeaconStampPositions pins the sender/receiver contract: a beacon's
// Sent field equals the cumulative part count as of the beacon's canonical
// slot, and a lossless receiver counting the same parts reads exactly that
// value — so the first measured window after the anchor is zero loss.
func TestBeaconStampPositions(t *testing.T) {
	net := transport.MustNetwork(transport.Config{})
	space := addr.MustRegular(4, 1)
	mk := func(i int) *Node {
		n, err := New(net, Config{
			Addr: space.AddressAt(i), Space: space, R: 1, F: 1, C: 1,
			AdaptiveFanout: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Stop() })
		return n
	}
	sender, receiver := mk(0), mk(1)
	to := receiver.Addr()

	d := membership.Digest{From: sender.Addr()}
	hb := membership.Heartbeat{From: sender.Addr()}
	g := core.Gossip{Event: event.NewBuilder().Int("b", 1).Build(event.ID{Origin: "s", Seq: 1})}
	upd := membership.Update{From: sender.Addr()}
	batch := wire.Batch{
		Gossips:   []core.Gossip{g, g},
		Update:    &upd,
		Digest:    &d,
		Heartbeat: &hb,
	}
	stamped := sender.stampOutgoing(to, batch).(wire.Batch)
	// Canonical order: 2 gossips, update (3), digest (4), heartbeat (5).
	if got := stamped.Digest.Sent; got != 4 {
		t.Errorf("digest Sent = %d, want 4", got)
	}
	if got := stamped.Heartbeat.Sent; got != 5 {
		t.Errorf("heartbeat Sent = %d, want 5", got)
	}
	if d.Sent != 0 || hb.Sent != 0 {
		t.Error("stamping mutated the caller's messages (must copy: egress encodes asynchronously)")
	}
	// A bare digest next: base 5, so Sent = 6.
	bare := sender.stampOutgoing(to, membership.Digest{From: sender.Addr()}).(membership.Digest)
	if bare.Sent != 6 {
		t.Errorf("bare digest Sent = %d, want 6", bare.Sent)
	}

	// Lossless receive of the same traffic: the batch's digest anchors, the
	// bare digest closes a window — except it is below lossEstMinWindow, so
	// still no sample; pad with gossips then beacon again for a 0 estimate.
	from := sender.Addr()
	receiver.observeIncoming(from, stamped)
	receiver.observeIncoming(from, bare)
	for i := 0; i < 8; i++ {
		sender.stampOutgoing(to, g)
		receiver.observeIncoming(from, g)
	}
	closing := sender.stampOutgoing(to, membership.Heartbeat{From: from}).(membership.Heartbeat)
	receiver.observeIncoming(from, closing)
	got, ok := receiver.est.Estimate(from.Key())
	if !ok || got != 0 {
		t.Errorf("lossless link estimate = %v, %v; want 0, true", got, ok)
	}
	stats := receiver.LossEstimates()
	if stats.MeasuredPeers != 1 || stats.MeanLoss != 0 {
		t.Errorf("stats = %+v, want 1 measured peer at 0 loss", stats)
	}
}

// TestJoinAndLeaveAreCharged: Join and Leave send around emit, and the
// receiver counts them like any other part — so the sender must charge them,
// or the "lossless link ⇒ beacon equals receive counter" invariant breaks
// across a join or a leave. Two step-mode nodes on a lossless fabric: Join,
// then membership traffic until a window closes. Every window base the
// receiver keeps is a (beacon, receive counter) pair read at one beacon, so
// equal bases mean the window closed with recvDelta == sentDelta — loss 0
// measured, not clamped.
func TestJoinAndLeaveAreCharged(t *testing.T) {
	net := transport.MustNetwork(transport.Config{})
	space := addr.MustRegular(4, 1)
	mk := func(i int) *Node {
		n, err := New(net, Config{
			Addr: space.AddressAt(i), Space: space, R: 1, F: 1, C: 1,
			AdaptiveFanout: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Stop() })
		return n
	}
	joiner, contact := mk(0), mk(1)
	pump := func() {
		for joiner.PumpInbox()+contact.PumpInbox() > 0 {
		}
	}
	link := func() (sent, recv *peerLossState) {
		return joiner.est.peers[contact.Addr().Key()], contact.est.peers[joiner.Addr().Key()]
	}

	if err := joiner.Join(contact.Addr()); err != nil {
		t.Fatal(err)
	}
	pump()
	for i := 0; i < 2*lossEstMinWindow; i++ {
		joiner.TickMembership()
		contact.TickMembership()
		pump()
	}
	sent, recv := link()
	if sent == nil || recv == nil || recv.samples == 0 {
		t.Fatalf("no window closed on the joiner→contact link: sender %+v, receiver %+v", sent, recv)
	}
	if recv.recvFrom != sent.sentTo {
		t.Errorf("contact received %d parts from the joiner, which charged %d", recv.recvFrom, sent.sentTo)
	}
	if recv.beaconBase != recv.recvBase || recv.est != 0 {
		t.Errorf("window closed at beacon %d with %d parts received (est %v); want them equal, loss 0 unclamped",
			recv.beaconBase, recv.recvBase, recv.est)
	}

	joiner.Leave()
	for contact.PumpInbox() > 0 {
	}
	if sent, recv = link(); recv.recvFrom != sent.sentTo {
		t.Errorf("after Leave: contact received %d parts from the joiner, which charged %d", recv.recvFrom, sent.sentTo)
	}
}

// TestAdaptiveClusterConvergesLossless runs a real 8-node cluster with
// adaptive fan-out on a clean fabric: estimators must converge toward zero
// (no phantom loss from the protocol's own traffic patterns).
func TestAdaptiveClusterConvergesLossless(t *testing.T) {
	net := transport.MustNetwork(transport.Config{})
	space := addr.MustRegular(2, 3)
	addrs := gridAddrs(space, 8)
	nodes := make([]*Node, len(addrs))
	for i, a := range addrs {
		n, err := New(net, Config{
			Addr: a, Space: space, R: 2, F: 3, C: 2,
			GossipInterval:     2 * time.Millisecond,
			MembershipInterval: 3 * time.Millisecond,
			SuspectAfter:       time.Hour,
			AdaptiveFanout:     true,
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
		for _, n := range nodes {
			if n.KnownMembers() != len(nodes) {
				return false
			}
		}
		return true
	}, "membership convergence")
	waitFor(t, 5*time.Second, func() bool {
		for _, n := range nodes {
			if n.LossEstimates().MeasuredPeers == 0 {
				return false
			}
		}
		return true
	}, "estimators to measure at least one window per node")
	for _, n := range nodes {
		if s := n.LossEstimates(); s.MeanLoss > 0.05 {
			t.Errorf("node %v: mean estimated loss %v on a lossless fabric", n.Addr(), s.MeanLoss)
		}
	}
}
