// Sensornet: topology-aware pmcast under churn. Addresses map to a
// building/floor/room hierarchy; monitoring stations subscribe to alarm
// conditions. The example exercises the membership protocol: a station
// joins late, one leaves gracefully, one crashes and is expelled by the
// failure detector — and alarms keep flowing to the interested survivors.
// Run with: go run ./examples/sensornet
package main

import (
	"fmt"
	"log"
	"time"

	"pmcast"
)

func main() {
	net := pmcast.MustNetwork(pmcast.NetworkConfig{Loss: 0.05, Seed: 3})
	space := pmcast.MustRegularSpace(3, 3) // building.floor.room

	mkNode := func(a string, sub pmcast.Subscription) *pmcast.Node {
		n, err := pmcast.NewNode(net, pmcast.NodeConfig{
			Addr:               pmcast.MustParseAddress(a),
			Space:              space,
			R:                  2,
			F:                  3,
			C:                  2,
			Subscription:       sub,
			GossipInterval:     4 * time.Millisecond,
			MembershipInterval: 6 * time.Millisecond,
			SuspectAfter:       150 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		n.Start()
		return n
	}

	hot := pmcast.Where("temp", pmcast.Gt(75))
	smoke := pmcast.Where("smoke", pmcast.IsBool(true))
	all := pmcast.MatchAll()

	stations := map[string]*pmcast.Node{
		"0.0.0": mkNode("0.0.0", all),   // control room: everything
		"0.0.1": mkNode("0.0.1", hot),   // HVAC monitor, building 0
		"0.1.0": mkNode("0.1.0", hot),   // HVAC monitor, floor 0.1
		"1.0.0": mkNode("1.0.0", smoke), // fire panel, building 1
		"1.0.1": mkNode("1.0.1", smoke),
		"2.0.0": mkNode("2.0.0", hot), // building 2 HVAC
	}
	defer func() {
		for _, n := range stations {
			n.Stop()
		}
	}()
	contact := stations["0.0.0"].Addr()
	for key, n := range stations {
		if key != "0.0.0" {
			must(n.Join(contact))
		}
	}
	waitMembers(stations, len(stations))
	fmt.Printf("sensor fabric up: %d stations\n", len(stations))

	// A hot-temperature alarm: reaches the control room and HVAC monitors.
	must1(stations["2.0.0"].Publish(map[string]pmcast.Value{
		"temp": pmcast.Float(82.5), "room": pmcast.Str("2.0.0"),
	}))
	expectDeliveries(stations, []string{"0.0.0", "0.0.1", "0.1.0", "2.0.0"}, "hot alarm")

	// Late join: a new fire panel in building 2.
	late := mkNode("2.1.0", smoke)
	stations["2.1.0"] = late
	must(late.Join(contact))
	waitMembers(stations, len(stations))
	fmt.Println("station 2.1.0 joined")

	// A smoke alarm reaches the fire panels (old and new) + control room.
	must1(stations["0.0.1"].Publish(map[string]pmcast.Value{
		"smoke": pmcast.Bool(true), "room": pmcast.Str("0.0.1"),
	}))
	expectDeliveries(stations, []string{"0.0.0", "1.0.0", "1.0.1", "2.1.0"}, "smoke alarm")

	// Graceful leave.
	stations["1.0.1"].Leave()
	delete(stations, "1.0.1")
	waitMembers(stations, len(stations))
	fmt.Println("station 1.0.1 left gracefully")

	// Crash: stop without leave. The failure detector watches immediate
	// neighbors, so 0.0.0, the other station in room group 0.0, notices the
	// silence and expels it.
	stations["0.0.1"].Stop()
	delete(stations, "0.0.1")
	waitMembers(stations, len(stations))
	fmt.Println("station 0.0.1 crashed and was expelled")

	// The fabric still routes alarms.
	must1(stations["0.0.0"].Publish(map[string]pmcast.Value{
		"temp": pmcast.Float(90), "smoke": pmcast.Bool(true), "room": pmcast.Str("0.0.0"),
	}))
	expectDeliveries(stations, []string{"0.0.0", "0.1.0", "1.0.0", "2.0.0", "2.1.0"}, "combined alarm")
	fmt.Println("sensornet example complete")
}

// expectDeliveries waits for exactly one delivery at each listed station and
// then briefly for any other: a missing or extra delivery ends the program
// with an error.
func expectDeliveries(stations map[string]*pmcast.Node, keys []string, what string) {
	for _, key := range keys {
		select {
		case ev := <-stations[key].Deliveries():
			room, _ := ev.Attr("room").AsString()
			fmt.Printf("  %s received %s from %s\n", key, what, room)
		case <-time.After(5 * time.Second):
			log.Fatalf("%s missed the %s", key, what)
		}
	}
	time.Sleep(100 * time.Millisecond)
	for key, n := range stations {
		select {
		case ev := <-n.Deliveries():
			log.Fatalf("%s delivered an extra event %s after the %s", key, ev, what)
		default:
		}
	}
}

func waitMembers(stations map[string]*pmcast.Node, want int) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, n := range stations {
			if n.KnownMembers() != want {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(3 * time.Millisecond)
	}
	log.Fatalf("membership did not converge to %d stations", want)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func must1[T any](_ T, err error) {
	if err != nil {
		log.Fatal(err)
	}
}
