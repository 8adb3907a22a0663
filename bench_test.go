// Benchmarks regenerating the paper's evaluation (one benchmark per figure)
// plus micro-benchmarks of the load-bearing primitives. Each figure bench
// runs one full Monte-Carlo dissemination per iteration at the exact paper
// parameters and reports the figure's y-axis value as a custom metric, so
//
//	go test -bench BenchmarkFigure4 -benchmem
//
// prints both the cost of a run and the reproduced reliability. The CSV
// tables behind the figures come from `pmcast-paper fig` (cmd/pmcast-paper).
package pmcast_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/analysis"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/harness"
	"pmcast/internal/interest"
	"pmcast/internal/membership"
	"pmcast/internal/node"
	"pmcast/internal/sim"
	"pmcast/internal/transport"
	"pmcast/internal/tree"
	"pmcast/internal/wire"
)

// fig45Params are the Figure 4/5 parameters: n ≈ 10000 (a=22, d=3), R=3, F=2.
func fig45Params() sim.Params {
	return sim.Params{A: 22, D: 3, R: 3, F: 2, Eps: 0.01, Tau: 0.001}
}

func benchDissemination(b *testing.B, params sim.Params, pd float64, metric string,
	value func(sim.Result) float64) {
	b.Helper()
	s, err := sim.New(params)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var sum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Run(pd, rng)
		if err != nil {
			b.Fatal(err)
		}
		sum += value(res)
	}
	b.ReportMetric(sum/float64(b.N), metric)
}

// BenchmarkFigure4 reproduces Figure 4: probability of delivery for
// interested processes across matching rates.
func BenchmarkFigure4(b *testing.B) {
	for _, pd := range []float64{0.05, 0.1, 0.2, 0.5, 1.0} {
		b.Run(fmt.Sprintf("pd=%g", pd), func(b *testing.B) {
			benchDissemination(b, fig45Params(), pd, "delivery/run",
				sim.Result.DeliveryRate)
		})
	}
}

// BenchmarkFigure5 reproduces Figure 5: probability of reception for
// uninterested processes.
func BenchmarkFigure5(b *testing.B) {
	for _, pd := range []float64{0.05, 0.1, 0.2, 0.5, 1.0} {
		b.Run(fmt.Sprintf("pd=%g", pd), func(b *testing.B) {
			benchDissemination(b, fig45Params(), pd, "uninterested/run",
				sim.Result.UninterestedReceptionRate)
		})
	}
}

// BenchmarkFigure6 reproduces Figure 6: scalability in the subgroup size a
// (d=3, R=4, F=3) at matching rates 0.5 and 0.2.
func BenchmarkFigure6(b *testing.B) {
	for _, a := range []int{10, 20, 30, 40} {
		for _, pd := range []float64{0.5, 0.2} {
			b.Run(fmt.Sprintf("a=%d/pd=%g", a, pd), func(b *testing.B) {
				params := sim.Params{A: a, D: 3, R: 4, F: 3, Eps: 0.01, Tau: 0.001}
				benchDissemination(b, params, pd, "delivery/run",
					sim.Result.DeliveryRate)
			})
		}
	}
}

// BenchmarkFigure7 reproduces Figure 7: the Section 5.3 tuning (threshold h)
// against the untuned algorithm at small matching rates.
func BenchmarkFigure7(b *testing.B) {
	for _, variant := range []struct {
		name string
		h    int
	}{{"original", 0}, {"improved", 8}} {
		for _, pd := range []float64{0.025, 0.05, 0.1} {
			b.Run(fmt.Sprintf("%s/pd=%g", variant.name, pd), func(b *testing.B) {
				params := fig45Params()
				params.Threshold = variant.h
				benchDissemination(b, params, pd, "delivery/run",
					sim.Result.DeliveryRate)
			})
		}
	}
}

// BenchmarkBaselines measures the Section 1 alternatives under the Figure 4
// environment for the message-cost comparison table.
func BenchmarkBaselines(b *testing.B) {
	const pd = 0.5
	n := fig45Params().N()
	b.Run("flood", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		var msgs float64
		for i := 0; i < b.N; i++ {
			res, err := sim.RunFlood(sim.FloodParams{N: n, F: 2, Eps: 0.01, Tau: 0.001}, pd, rng)
			if err != nil {
				b.Fatal(err)
			}
			msgs += float64(res.Messages)
		}
		b.ReportMetric(msgs/float64(b.N), "msgs/run")
	})
	b.Run("genuine", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		var msgs float64
		for i := 0; i < b.N; i++ {
			res, err := sim.RunGenuine(sim.GenuineParams{
				N: n, ViewSize: 66, F: 2, Eps: 0.01, Tau: 0.001}, pd, rng)
			if err != nil {
				b.Fatal(err)
			}
			msgs += float64(res.Messages)
		}
		b.ReportMetric(msgs/float64(b.N), "msgs/run")
	})
	b.Run("dettree", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		var msgs float64
		for i := 0; i < b.N; i++ {
			res, err := sim.RunDeterministicTree(sim.DetTreeParams{
				A: 22, D: 3, R: 3, Eps: 0.01, Tau: 0.001}, pd, rng)
			if err != nil {
				b.Fatal(err)
			}
			msgs += float64(res.Messages)
		}
		b.ReportMetric(msgs/float64(b.N), "msgs/run")
	})
	b.Run("pmcast", func(b *testing.B) {
		benchDissemination(b, fig45Params(), pd, "msgs/run",
			func(r sim.Result) float64 { return float64(r.Messages) })
	})
}

// BenchmarkAnalysisModel measures the Eq. 3–18 evaluation (the per-figure
// analytic overlay).
func BenchmarkAnalysisModel(b *testing.B) {
	params := analysis.TreeParams{A: 22, D: 3, R: 3, F: 2, Pd: 0.5, Eps: 0.01, Tau: 0.001}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := analysis.NewTreeModel(params)
		if err != nil {
			b.Fatal(err)
		}
		_ = m.Reliability()
	}
}

// BenchmarkMarkovChain measures the flat-group distribution recursion
// (Eq. 9–10) at a paper-scale subgroup.
func BenchmarkMarkovChain(b *testing.B) {
	chain, err := analysis.NewChain(analysis.FlatParams{N: 66, F: 2, Eps: 0.01, Tau: 0.001})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = chain.ExpectedInfected(1, 8)
	}
}

// BenchmarkSubscriptionMatch measures content-based matching (the per-gossip
// hot path of live nodes).
func BenchmarkSubscriptionMatch(b *testing.B) {
	sub := interest.NewSubscription().
		Where("b", interest.EqInt(2)).
		Where("c", interest.Gt(40)).
		Where("e", interest.OneOf("Bob", "Tom"))
	ev := event.NewBuilder().Int("b", 2).Float("c", 41).Str("e", "Tom").
		Build(event.ID{Origin: "x", Seq: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sub.Matches(ev) {
			b.Fatal("must match")
		}
	}
}

// BenchmarkSummaryMatch measures matching against a regrouped summary (the
// delegate-side filter).
func BenchmarkSummaryMatch(b *testing.B) {
	sum := interest.NewSummaryWithBound(8)
	for i := 0; i < 50; i++ {
		sum.Add(interest.NewSubscription().
			Where("b", interest.EqInt(int64(i))).
			Where("c", interest.Gt(float64(i))))
	}
	ev := event.NewBuilder().Int("b", 25).Float("c", 30).Build(event.ID{Origin: "x", Seq: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum.Matches(ev)
	}
}

// BenchmarkSummaryRegroup measures interest regrouping (view aggregation).
func BenchmarkSummaryRegroup(b *testing.B) {
	subs := make([]interest.Subscription, 64)
	for i := range subs {
		subs[i] = interest.NewSubscription().
			Where("b", interest.Between(float64(i), float64(i+10))).
			Where("e", interest.OneOf(fmt.Sprintf("user%d", i%7)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = interest.Summarize(subs...)
	}
}

// BenchmarkTreeBuild measures constructing the delegate tree from a member
// snapshot (the membership-change hot path of live nodes).
func BenchmarkTreeBuild(b *testing.B) {
	space := addr.MustRegular(8, 3) // 512 members
	members := make([]tree.Member, 0, space.Capacity())
	for i := 0; i < space.Capacity(); i++ {
		members = append(members, tree.Member{
			Addr: space.AddressAt(i),
			Sub:  interest.NewSubscription().Where("b", interest.EqInt(int64(i%9))),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Build(tree.Config{Space: space, R: 3}, members); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBatch builds a representative round envelope: events events of the
// soak shape (one small integer attribute, tree-address origins).
func benchBatch(events int) wire.Batch {
	b := wire.Batch{}
	for i := 0; i < events; i++ {
		b.Gossips = append(b.Gossips, core.Gossip{
			Event: event.NewBuilder().Int("b", int64(i%4)).
				Build(event.ID{Origin: "0.1.2.3", Seq: uint64(i + 1)}),
			Depth: 2,
			Rate:  0.25,
			Round: i % 5,
		})
	}
	return b
}

// BenchmarkWireEncodeBatch is the allocation-regression bench of the batched
// encode path: steady-state encoding into a reused buffer must not allocate
// at all. The assertion runs inside the bench so a regression fails `go
// test`, not just drifts in a dashboard (the matching unit assertion lives
// in internal/wire's TestBatchCodecAllocBudget).
func BenchmarkWireEncodeBatch(b *testing.B) {
	for _, events := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("events=%d", events), func(b *testing.B) {
			batch := benchBatch(events)
			buf := make([]byte, 0, 64<<10)
			if allocs := testing.AllocsPerRun(100, func() {
				buf = wire.AppendBatch(buf[:0], batch)[:0]
			}); allocs != 0 {
				b.Fatalf("encode allocates %.1f/op, want 0", allocs)
			}
			size := wire.EncodedSize(batch)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = wire.AppendBatch(buf[:0], batch)[:0]
			}
			b.ReportMetric(float64(size)/float64(events), "bytes/event")
		})
	}
}

// BenchmarkWireDecodeBatch is the decode-side allocation-regression bench:
// with an interning decoder, steady state costs at most one allocation per
// event (its attribute storage) plus a constant for the batch itself.
func BenchmarkWireDecodeBatch(b *testing.B) {
	for _, events := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("events=%d", events), func(b *testing.B) {
			data, err := wire.Encode(benchBatch(events))
			if err != nil {
				b.Fatal(err)
			}
			dec := wire.NewDecoder()
			if allocs := testing.AllocsPerRun(100, func() {
				if _, err := dec.Decode(data); err != nil {
					b.Fatal(err)
				}
			}); allocs > float64(events)+4 {
				b.Fatalf("decode allocates %.1f/op for %d events, want ≤ 1/event (+4)", allocs, events)
			}
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNodePublishStream measures sustained end-to-end throughput of the
// live runtime: one full soak-class campaign per iteration — 64 real nodes
// on the virtual clock, four publishers streaming for a virtual second under
// loss and a crash wave — reporting delivered events per virtual second and
// envelopes per published event.
func BenchmarkNodePublishStream(b *testing.B) {
	var eventsPerSec, envPerEvent, wall float64
	for i := 0; i < b.N; i++ {
		res, err := harness.Soak64().Run(3)
		if err != nil {
			b.Fatal(err)
		}
		eventsPerSec += res.Report.EventsPerSec
		envPerEvent += res.Report.EnvelopesPerEvent
		wall += float64(res.Report.WallMillis)
	}
	n := float64(b.N)
	b.ReportMetric(eventsPerSec/n, "events/vsec")
	b.ReportMetric(envPerEvent/n, "envelopes/event")
	b.ReportMetric(wall/n, "wall-ms/run")
}

// BenchmarkEnginePublishStream is the multicore soak benchmark of the
// staged engine: a real-clock 36-node fleet over the in-memory fabric
// (wire accounting on, so every envelope pays its encode-measure cost),
// saturated by six concurrent publishers. Each iteration pushes a 240-event
// burst through the fleet and waits for dissemination to quiesce; the
// reported events/sec is total deliveries over wall time. The staged
// sub-benchmark runs two egress workers a node beside its protocol
// goroutine; the serial one is the A/B control, every send inline on the
// protocol goroutine. Run it with -cpu 1,2,4: gossip ticks are far shorter
// than a burst's processing time, so tick coalescing makes throughput
// CPU-bound. The benchmark once carried a bar of ≥2× staged events/sec at
// -cpu 4 over -cpu 1; no 2-vCPU machine can check it, and nothing gates on
// the numbers.
func BenchmarkEnginePublishStream(b *testing.B) {
	for _, mode := range []struct {
		name    string
		workers int
	}{{"staged", 2}, {"serial", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			const (
				fleetN     = 36
				publishers = 6
				perPub     = 40
			)
			space := addr.MustRegular(6, 2)
			net := transport.MustNetwork(transport.Config{QueueLen: 16384})
			defer net.Close()
			sub := interest.NewSubscription() // match-all: full fan-out per event
			recs := make([]membership.Record, fleetN)
			for i := range recs {
				recs[i] = membership.Record{Addr: space.AddressAt(i), Sub: sub, Stamp: 1, Alive: true}
			}
			nodes := make([]*node.Node, fleetN)
			for i := range nodes {
				n, err := node.New(net, node.Config{
					Addr: space.AddressAt(i), Space: space,
					R: 2, F: 3, C: 3,
					Subscription:       sub,
					GossipInterval:     500 * time.Microsecond,
					MembershipInterval: time.Hour, // membership quiesced: gossip is the subject
					SuspectAfter:       time.Hour,
					DeliveryBuffer:     8192,
					EncodeWorkers:      mode.workers,
					StageQueue:         8192,
					Seed:               int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				nodes[i] = n
			}
			defer func() {
				for _, n := range nodes {
					n.Stop()
				}
			}()
			var delivered atomic.Int64
			for _, n := range nodes {
				n.Membership().Apply(membership.Update{Records: recs})
				if err := n.WarmViews(); err != nil {
					b.Fatal(err)
				}
				n.Start()
				go func(c <-chan event.Event) {
					for range c {
						delivered.Add(1)
					}
				}(n.Deliveries())
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := delivered.Load()
				want := start + int64(publishers*perPub*fleetN)
				var wg sync.WaitGroup
				for p := 0; p < publishers; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						pub := nodes[p*(fleetN/publishers)]
						for k := 0; k < perPub; k++ {
							if _, err := pub.Publish(map[string]event.Value{"b": event.Int(int64(k % 4))}); err != nil {
								b.Error(err)
								return
							}
						}
					}(p)
				}
				wg.Wait()
				// Quiesce: the protocol is probabilistic, so wait for either
				// full delivery or a stretch with no progress at all.
				last, stalls := delivered.Load(), 0
				for delivered.Load() < want && stalls < 40 {
					time.Sleep(5 * time.Millisecond)
					if cur := delivered.Load(); cur == last {
						stalls++
					} else {
						last, stalls = cur, 0
					}
				}
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(delivered.Load())/secs, "events/sec")
			}
		})
	}
}

// BenchmarkSimRound measures one full paper-scale dissemination (the unit of
// every figure bench) for end-to-end throughput tracking.
func BenchmarkSimRound(b *testing.B) {
	s, err := sim.New(fig45Params())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(0.5, rng); err != nil {
			b.Fatal(err)
		}
	}
}
