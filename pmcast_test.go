package pmcast_test

import (
	"testing"
	"time"

	"pmcast"
	"pmcast/internal/event"
)

// TestFacadeEndToEnd drives the public API only: a small cluster over the
// in-memory network, content-based subscriptions, publish, delivery.
func TestFacadeEndToEnd(t *testing.T) {
	net := pmcast.MustNetwork(pmcast.NetworkConfig{})
	space := pmcast.MustRegularSpace(3, 2)

	subs := map[string]pmcast.Subscription{
		"0.0": pmcast.Where("price", pmcast.Gt(100)),
		"0.1": pmcast.Where("price", pmcast.Between(50, 150)),
		"1.0": pmcast.Where("symbol", pmcast.OneOf("ACME")),
		"1.1": pmcast.Where("price", pmcast.Lt(10)),
	}
	nodes := make(map[string]*pmcast.Node)
	for key, sub := range subs {
		n, err := pmcast.NewNode(net, pmcast.NodeConfig{
			Addr:               pmcast.MustParseAddress(key),
			Space:              space,
			R:                  2,
			F:                  3,
			C:                  2,
			Subscription:       sub,
			GossipInterval:     4 * time.Millisecond,
			MembershipInterval: 6 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[key] = n
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	contact := nodes["0.0"].Addr()
	for key, n := range nodes {
		if key == "0.0" {
			continue
		}
		if err := n.Join(contact); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, n := range nodes {
			if n.KnownMembers() != len(nodes) {
				all = false
			}
		}
		if all {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// price=120, symbol=ACME matches 0.0 (price>100), 0.1 (50<price<150)
	// and 1.0 (symbol ACME) but not 1.1 (price<10).
	if _, err := nodes["1.1"].Publish(map[string]pmcast.Value{
		"price":  pmcast.Float(120),
		"symbol": pmcast.Str("ACME"),
	}); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"0.0", "0.1", "1.0"} {
		select {
		case ev := <-nodes[key].Deliveries():
			if v, _ := ev.Attr("price").AsFloat(); v != 120 {
				t.Errorf("%s delivered wrong event %v", key, ev)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not deliver", key)
		}
	}
	select {
	case ev := <-nodes["1.1"].Deliveries():
		t.Errorf("uninterested publisher delivered %v", ev)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestFacadeUDPEndToEnd runs the same public-API flow over real loopback
// UDP sockets: the transport is swapped, nothing else changes. It runs the
// full multicore configuration of the staged engine — deferred datagram
// decoding on the transport, parallel decode and encode workers on every
// node — so the whole ingress → protocol → egress pipeline is exercised
// end to end over a real fabric in the tier-1 suite.
func TestFacadeUDPEndToEnd(t *testing.T) {
	peers := map[string]string{
		"0.0": "127.0.0.1:0", "0.1": "127.0.0.1:0",
		"1.0": "127.0.0.1:0", "1.1": "127.0.0.1:0",
	}
	res, err := pmcast.NewStaticResolver(peers)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pmcast.NewUDPTransport(pmcast.UDPConfig{Resolver: res, DeferDecode: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	space := pmcast.MustRegularSpace(2, 2)
	subs := map[string]pmcast.Subscription{
		"0.0": pmcast.Where("price", pmcast.Gt(100)),
		"0.1": pmcast.Where("price", pmcast.Lt(10)),
		"1.0": pmcast.MatchAll(),
		"1.1": pmcast.Where("symbol", pmcast.OneOf("ACME")),
	}
	nodes := make(map[string]*pmcast.Node)
	for key, sub := range subs {
		n, err := pmcast.NewNode(tr, pmcast.NodeConfig{
			Addr:               pmcast.MustParseAddress(key),
			Space:              space,
			R:                  2,
			F:                  3,
			C:                  2,
			Subscription:       sub,
			GossipInterval:     4 * time.Millisecond,
			MembershipInterval: 6 * time.Millisecond,
			DecodeWorkers:      2,
			EncodeWorkers:      2,
			StageQueue:         512,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[key] = n
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	contact := nodes["0.0"].Addr()
	for key, n := range nodes {
		if key == "0.0" {
			continue
		}
		if err := n.Join(contact); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, n := range nodes {
			if n.KnownMembers() != len(nodes) {
				all = false
			}
		}
		if all {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// price=120, symbol=ACME matches 0.0 (price>100), 1.0 (everything) and
	// 1.1 (symbol ACME) but not 0.1 (price<10).
	if _, err := nodes["0.1"].Publish(map[string]pmcast.Value{
		"price":  pmcast.Float(120),
		"symbol": pmcast.Str("ACME"),
	}); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"0.0", "1.0", "1.1"} {
		select {
		case ev := <-nodes[key].Deliveries():
			if v, _ := ev.Attr("price").AsFloat(); v != 120 {
				t.Errorf("%s delivered wrong event %v", key, ev)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not deliver over UDP", key)
		}
	}
	select {
	case ev := <-nodes["0.1"].Deliveries():
		t.Errorf("uninterested publisher delivered %v", ev)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestFacadeSimulatorAndModel(t *testing.T) {
	s, err := pmcast.NewSimulator(pmcast.SimParams{A: 6, D: 2, R: 2, F: 2})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := s.RunMany(0.5, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Delivery.Mean() <= 0 {
		t.Errorf("simulated delivery = %g", agg.Delivery.Mean())
	}
	m, err := pmcast.NewTreeModel(pmcast.TreeParams{A: 6, D: 2, R: 2, F: 2, Pd: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rel := m.Reliability(); rel <= 0 || rel > 1 {
		t.Errorf("model reliability = %g", rel)
	}
	if pmcast.Pittel(1000, 2, 0) <= 0 {
		t.Error("Pittel broken through facade")
	}
}

func TestFacadeSubscriptionLanguage(t *testing.T) {
	sub := pmcast.Where("b", pmcast.EqInt(2)).
		Where("c", pmcast.Gt(40)).
		Where("e", pmcast.OneOf("Bob", "Tom"))
	ev := pmcast.NewEventBuilder().
		Int("b", 2).Float("c", 41).Str("e", "Tom").
		Build(event.ID{Origin: "t", Seq: 1})
	if !sub.Matches(ev) {
		t.Error("subscription should match")
	}
	if pmcast.MatchAll().String() != "*" {
		t.Error("MatchAll wrong")
	}
	sum := pmcast.Summarize(sub, pmcast.Where("z", pmcast.Le(5)))
	if !sum.Matches(ev) {
		t.Error("summary should cover contributing subscription")
	}
}

// TestFacadeCodedCluster exercises the coding layer through the public API
// only: a small coded cluster delivers everything, and the publisher's
// FEC stats show repair symbols actually left on the wire.
func TestFacadeCodedCluster(t *testing.T) {
	net := pmcast.MustNetwork(pmcast.NetworkConfig{})
	space := pmcast.MustRegularSpace(3, 2)
	sub := pmcast.Where("b", pmcast.EqInt(1))
	nodes := make([]*pmcast.Node, 6)
	for i := range nodes {
		n, err := pmcast.NewNode(net, pmcast.NodeConfig{
			Addr:               space.AddressAt(i),
			Space:              space,
			R:                  2,
			F:                  3,
			C:                  2,
			Subscription:       sub,
			GossipInterval:     4 * time.Millisecond,
			MembershipInterval: 6 * time.Millisecond,
			FECRepairs:         1,
			FECSources:         4,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	for _, n := range nodes[1:] {
		if err := n.Join(nodes[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, n := range nodes {
			if n.KnownMembers() != len(nodes) {
				all = false
			}
		}
		if all {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	const events = 4
	for i := 0; i < events; i++ {
		if _, err := nodes[0].Publish(map[string]pmcast.Value{"b": pmcast.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes[1:] {
		got := 0
		for got < events {
			select {
			case <-n.Deliveries():
				got++
			case <-time.After(5 * time.Second):
				t.Fatalf("node %s delivered %d of %d", n.Addr(), got, events)
			}
		}
	}
	if st := nodes[0].FECStats(); st.RepairBytes == 0 {
		t.Errorf("publisher sent no repair bytes: %+v", st)
	}
}
