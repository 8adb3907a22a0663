// Stockticker: the content-based publish/subscribe workload the paper's
// introduction motivates. 27 trading processes (a 3×3×3 tree, e.g. three
// data centers × three racks × three hosts) subscribe to quotes by symbol
// and price band; a feed process publishes a stream of quotes. pmcast
// delivers each quote to exactly the interested traders without flooding
// the rest. Run with: go run ./examples/stockticker
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"pmcast"
)

const (
	groupArity = 3
	treeDepth  = 3
)

var symbols = []string{"ACME", "GLOBEX", "INITECH"}

func main() {
	net := pmcast.MustNetwork(pmcast.NetworkConfig{})
	space := pmcast.MustRegularSpace(groupArity, treeDepth)
	rng := rand.New(rand.NewSource(7))

	// Build 27 traders with heterogeneous interests.
	type trader struct {
		node *pmcast.Node
		sub  pmcast.Subscription
		want int
		got  int
	}
	traders := make([]*trader, 0, space.Capacity())
	for i := 0; i < space.Capacity(); i++ {
		sub := randomSubscription(rng)
		n, err := pmcast.NewNode(net, pmcast.NodeConfig{
			Addr:               space.AddressAt(i),
			Space:              space,
			R:                  2,
			F:                  3,
			C:                  2,
			Subscription:       sub,
			GossipInterval:     4 * time.Millisecond,
			MembershipInterval: 8 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		n.Start()
		defer n.Stop()
		traders = append(traders, &trader{node: n, sub: sub})
	}
	contact := traders[0].node.Addr()
	for _, tr := range traders[1:] {
		if err := tr.node.Join(contact); err != nil {
			log.Fatal(err)
		}
	}
	waitForMembership(traders, func(tr *trader) int { return tr.node.KnownMembers() }, len(traders))
	fmt.Printf("trading group converged: %d members\n", len(traders))

	// The feed (trader 0) publishes a stream of quotes.
	const quotes = 12
	published := make([]map[string]pmcast.Value, 0, quotes)
	for q := 0; q < quotes; q++ {
		quote := map[string]pmcast.Value{
			"symbol": pmcast.Str(symbols[rng.Intn(len(symbols))]),
			"price":  pmcast.Float(float64(10 + rng.Intn(190))),
			"volume": pmcast.Int(int64(100 * (1 + rng.Intn(50)))),
		}
		if _, err := traders[0].node.Publish(quote); err != nil {
			log.Fatal(err)
		}
		published = append(published, quote)
		time.Sleep(3 * time.Millisecond)
	}
	// Expected deliveries per trader.
	for _, tr := range traders {
		for _, quote := range published {
			ev := pmcast.NewEventBuilder().
				Str("symbol", mustStr(quote["symbol"])).
				Float("price", mustFloat(quote["price"])).
				Int("volume", mustInt(quote["volume"])).
				Build(pmcast.EventID{Origin: "x", Seq: 1})
			if tr.sub.Matches(ev) {
				tr.want++
			}
		}
	}

	// Drain deliveries until everyone matched expectations, then a little
	// longer so that an extra delivery shows too.
	deadline := time.Now().Add(5 * time.Second)
	var settled time.Time
	for time.Now().Before(deadline) && (settled.IsZero() || time.Now().Before(settled)) {
		pending := false
		for _, tr := range traders {
			for drained := false; !drained; {
				select {
				case ev := <-tr.node.Deliveries():
					if !tr.sub.Matches(ev) {
						log.Fatalf("%s delivered %s, which its subscription %s rejects", tr.node.Addr(), ev, tr.sub)
					}
					tr.got++
				default:
					drained = true
				}
			}
			if tr.got < tr.want {
				pending = true
			}
		}
		if !pending && settled.IsZero() {
			settled = time.Now().Add(100 * time.Millisecond)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Report.
	sort.Slice(traders, func(i, j int) bool {
		return traders[i].node.Addr().Less(traders[j].node.Addr())
	})
	total, totalWant := 0, 0
	for _, tr := range traders {
		fmt.Printf("%-6s %-40s delivered %2d/%2d\n",
			tr.node.Addr(), tr.sub, tr.got, tr.want)
		total += tr.got
		totalWant += tr.want
	}
	fmt.Printf("delivered %d of %d expected quote notifications (%d quotes × 27 traders = %d possible)\n",
		total, totalWant, quotes, quotes*len(traders))
	for _, tr := range traders {
		if tr.got != tr.want {
			log.Fatalf("%s delivered %d quotes, want %d", tr.node.Addr(), tr.got, tr.want)
		}
	}
}

func randomSubscription(rng *rand.Rand) pmcast.Subscription {
	sym := symbols[rng.Intn(len(symbols))]
	switch rng.Intn(3) {
	case 0: // symbol watcher
		return pmcast.Where("symbol", pmcast.OneOf(sym))
	case 1: // bargain hunter
		return pmcast.Where("price", pmcast.Lt(float64(40+rng.Intn(60))))
	default: // symbol + band
		lo := float64(20 + rng.Intn(80))
		return pmcast.Where("symbol", pmcast.OneOf(sym)).
			Where("price", pmcast.Between(lo, lo+60))
	}
}

func mustStr(v pmcast.Value) string {
	s, _ := v.AsString()
	return s
}

func mustFloat(v pmcast.Value) float64 {
	f, _ := v.AsFloat()
	return f
}

func mustInt(v pmcast.Value) int64 {
	i, _ := v.AsInt()
	return i
}

func waitForMembership[T any](items []T, size func(T) int, want int) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, it := range items {
			if size(it) != want {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(3 * time.Millisecond)
	}
	log.Fatalf("membership did not converge to %d members", want)
}
