// Quickstart: a four-process pmcast group on the in-memory network.
// Two processes subscribe to small readings, one to large ones; the fourth
// publishes. Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"slices"
	"time"

	"pmcast"
)

func main() {
	net := pmcast.MustNetwork(pmcast.NetworkConfig{})
	space := pmcast.MustRegularSpace(2, 2) // addresses x.y with x,y ∈ {0,1}

	specs := []struct {
		addr string
		sub  pmcast.Subscription
	}{
		{"0.0", pmcast.Where("reading", pmcast.Lt(50))},
		{"0.1", pmcast.Where("reading", pmcast.Lt(50))},
		{"1.0", pmcast.Where("reading", pmcast.Ge(50))},
		{"1.1", pmcast.MatchAll()},
	}
	nodes := make([]*pmcast.Node, 0, len(specs))
	for _, sp := range specs {
		n, err := pmcast.NewNode(net, pmcast.NodeConfig{
			Addr:               pmcast.MustParseAddress(sp.addr),
			Space:              space,
			R:                  1,
			F:                  2,
			C:                  2,
			Subscription:       sp.sub,
			GossipInterval:     5 * time.Millisecond,
			MembershipInterval: 10 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		n.Start()
		defer n.Stop()
		nodes = append(nodes, n)
	}
	// Everyone joins through the first node.
	for _, n := range nodes[1:] {
		if err := n.Join(nodes[0].Addr()); err != nil {
			log.Fatal(err)
		}
	}
	waitForMembership(nodes, len(nodes))
	fmt.Printf("group converged: %d members\n", nodes[0].KnownMembers())

	// 1.1 publishes two readings: one small, one large.
	for _, reading := range []float64{12, 87} {
		if _, err := nodes[3].Publish(map[string]pmcast.Value{
			"reading": pmcast.Float(reading),
		}); err != nil {
			log.Fatal(err)
		}
	}

	// Collect deliveries until every subscriber has its events, then a
	// little longer so that an extra delivery shows too.
	want := []int{1, 1, 1, 2}
	got := make([]int, len(nodes))
	deadline := time.Now().Add(2 * time.Second)
	var settled time.Time
	for time.Now().Before(deadline) && (settled.IsZero() || time.Now().Before(settled)) {
		for i, n := range nodes {
			select {
			case ev := <-n.Deliveries():
				r, _ := ev.Attr("reading").AsFloat()
				fmt.Printf("%s delivered reading=%g (want %s)\n", specs[i].addr, r, specs[i].sub)
				if !specs[i].sub.Matches(ev) {
					log.Fatalf("%s delivered reading=%g, which its subscription rejects", specs[i].addr, r)
				}
				got[i]++
			default:
			}
		}
		if settled.IsZero() && slices.Equal(got, want) {
			settled = time.Now().Add(100 * time.Millisecond)
		}
		time.Sleep(time.Millisecond)
	}
	for i, sp := range specs {
		if got[i] != want[i] {
			log.Fatalf("%s delivered %d events, want %d", sp.addr, got[i], want[i])
		}
	}
	fmt.Println("quickstart complete: every subscriber saw exactly its events")
}

func waitForMembership(nodes []*pmcast.Node, want int) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, n := range nodes {
			if n.KnownMembers() != want {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	log.Fatalf("membership did not converge to %d members", want)
}
