package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/event"
	"pmcast/internal/interest"
	"pmcast/internal/transport"
)

// Scenarios returns the named scenario catalog — the test matrix the chaos
// CLI and the scheduled CI suite run. Each call builds fresh values, so
// callers may mutate them freely.
func Scenarios() map[string]Scenario {
	return map[string]Scenario{
		"smoke16":     Smoke16(),
		"parity64":    Parity64(),
		"lossy256":    Lossy256(),
		"churn1024":   Churn1024(),
		"soak64":      Soak64(),
		"frontier64":  Frontier64(),
		"soak256":     Soak256(),
		"manyattr512": ManyAttr512(),
		"noisy64":     Noisy64(),
		"noisy256":    Noisy256(),
		"bursty1024":  Bursty1024(),
		"soak4k":      Soak4k(),
		"churn16k":    Churn16k(),
		"soak64k":     Soak64k(),
		"zipf64":      Zipf64(),
		"zipf1m":      Zipf1M(),
	}
}

// Lookup resolves a named scenario.
func Lookup(name string) (Scenario, error) {
	s, ok := Scenarios()[name]
	if !ok {
		return Scenario{}, fmt.Errorf("harness: unknown scenario %q (have %v)", name, ScenarioNames())
	}
	return s, nil
}

// ScenarioNames lists the catalog in stable order.
func ScenarioNames() []string {
	names := make([]string, 0, 4)
	for name := range Scenarios() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Smoke16 is the quick everything-once campaign: a 16-node fleet that
// joins from cold, suffers one crash wave and a brief partition, and keeps
// publishing throughout. It runs in a few milliseconds of wall clock.
func Smoke16() Scenario {
	s := Scenario{
		Name: "smoke16",
		Fleet: Fleet{
			Arity: 4, Depth: 2,
			R: 2, F: 3, C: 3,
			GossipInterval:     10 * time.Millisecond,
			MembershipInterval: 20 * time.Millisecond,
			SuspectAfter:       200 * time.Millisecond,
			Classes:            2,
		},
		Nodes:     16,
		Bootstrap: BootstrapJoin,
		MinDelay:  200 * time.Microsecond,
		MaxDelay:  2 * time.Millisecond,
		Horizon:   3500 * time.Millisecond,
	}
	// Publishes sit outside the partition window: events gossiped while
	// their publisher (or a subscriber) is isolated exhaust their round
	// budgets against a wall, which is chaos worth measuring — but the
	// smoke campaign asserts clean-path reliability.
	s.PublishAt(800*time.Millisecond, 0, 2, -1).
		IsolateAt(1*time.Second, 2).
		HealAt(1300*time.Millisecond).
		PublishAt(1800*time.Millisecond, -1, 2, -1).
		CrashAt(2*time.Second, 2).
		PublishAt(2600*time.Millisecond, -1, 2, -1)
	return s
}

// Parity64 is the transport-parity contract of PR 1 re-expressed as a
// harness scenario: the regular 8×8 tree whose top-level subtrees alternate
// interest classes (even first digit wants b=0, odd wants b=1), with node
// 0.0 publishing two events of each class. Its ground truth is exact:
// every node delivers precisely its class (see internal/node/parity_test.go).
func Parity64() Scenario {
	s := Scenario{
		Name: "parity64",
		Fleet: Fleet{
			Arity: 8, Depth: 2,
			R: 2, F: 5, C: 4,
			GossipInterval:     10 * time.Millisecond,
			MembershipInterval: 15 * time.Millisecond,
			SuspectAfter:       time.Hour, // no churn here: detection off
			Classes:            2,
		},
		Nodes:           64,
		Bootstrap:       BootstrapJoin,
		MinDelay:        100 * time.Microsecond,
		MaxDelay:        1 * time.Millisecond,
		Horizon:         6 * time.Second,
		SubscriptionFor: subtreeClass(2),
	}
	// Seq 1..4 from node 0.0, classes alternating 0,1,0,1 — the same ground
	// truth the cross-fabric parity test asserts.
	s.PublishAt(3*time.Second, 0, 1, 0).
		PublishAt(3*time.Second+10*time.Millisecond, 0, 1, 1).
		PublishAt(3*time.Second+20*time.Millisecond, 0, 1, 0).
		PublishAt(3*time.Second+30*time.Millisecond, 0, 1, 1)
	return s
}

// Lossy256 stresses the redundancy/forwarding trade-off: 256 nodes under
// 15% ambient loss and jittered delays, with partitions, subscription flux
// and a crash wave mid-campaign.
func Lossy256() Scenario {
	s := Scenario{
		Name: "lossy256",
		Fleet: Fleet{
			Arity: 4, Depth: 4,
			R: 2, F: 5, C: 4,
			GossipInterval:     20 * time.Millisecond,
			MembershipInterval: 80 * time.Millisecond,
			SuspectAfter:       500 * time.Millisecond,
			Classes:            4,
		},
		Nodes:     256,
		Bootstrap: BootstrapOracle,
		Loss:      0.15,
		MinDelay:  500 * time.Microsecond,
		MaxDelay:  5 * time.Millisecond,
		Horizon:   2200 * time.Millisecond,
		// Interests cluster by top-level subtree — the deployment the
		// paper's hierarchical addressing is designed around — so subtree
		// summaries stay tight; the flux wave then measures what interest
		// drift does to them.
		SubscriptionFor: subtreeClass(4),
	}
	// Publishes land outside the partition window (events gossiped against a
	// partition exhaust their budgets and die — that failure mode is
	// lossy-and-partitioned chaos, measured by min reliability, while the
	// scheduled publishes measure loss resilience).
	s.PublishAt(100*time.Millisecond, -1, 4, -1).
		IsolateAt(300*time.Millisecond, 8).
		FluxAt(400*time.Millisecond, 16).
		HealAt(650*time.Millisecond).
		PublishAt(850*time.Millisecond, -1, 4, -1).
		CrashAt(1*time.Second, 16).
		PublishAt(1500*time.Millisecond, -1, 4, -1)
	return s
}

// Soak64 is the quick sustained-throughput campaign: four fixed publishers
// spread across the tree's top-level subtrees emit a steady event stream
// under mild ambient loss and a small crash wave. Its report's events/sec,
// envelopes/event and bytes/event are what the batched gossip pipeline is
// measured by, at a size that runs in well under a second of wall clock.
func Soak64() Scenario {
	s := Scenario{
		Name: "soak64",
		Fleet: Fleet{
			Arity: 4, Depth: 3,
			R: 2, F: 3, C: 3,
			GossipInterval:     20 * time.Millisecond,
			MembershipInterval: 100 * time.Millisecond,
			SuspectAfter:       600 * time.Millisecond,
			Classes:            4,
		},
		Nodes:           64,
		Bootstrap:       BootstrapOracle,
		Loss:            0.01,
		QueueLen:        2048,
		Horizon:         1300 * time.Millisecond,
		SubscriptionFor: subtreeClass(4),
	}
	// Four publishers, one per top-level subtree, each publishing two events
	// every 20ms — offset by 5ms so their rounds interleave.
	for k, idx := range []int{0, 16, 32, 48} {
		off := time.Duration(k) * 5 * time.Millisecond
		s.StreamAt(100*time.Millisecond+off, 1100*time.Millisecond, 20*time.Millisecond, idx, 2, -1)
	}
	s.CrashAt(500*time.Millisecond, 4)
	return s
}

// Frontier64 is Soak64 without its crash wave: the base campaign of the
// coded-gossip frontier sweep (see internal/experiments). Loss is the
// sweep's independent variable, so the churn soak64 uses to exercise
// membership is removed — a node crashing mid-stream forfeits its whole
// tail of deliveries, a catastrophic variance term orthogonal to the
// loss/redundancy trade-off being measured.
func Frontier64() Scenario {
	s := Soak64()
	s.Name = "frontier64"
	kept := s.Ops[:0]
	for _, op := range s.Ops {
		if op.Kind != OpCrash {
			kept = append(kept, op)
		}
	}
	s.Ops = kept
	return s
}

// Soak256 is the sustained-throughput acceptance campaign: a 256-node fleet
// under ambient loss and churn, with eight fixed publishers emitting a
// steady multi-class event stream for two virtual seconds. Round-envelope
// aggregation is the subject: at seed 7 the per-send path this pipeline
// replaced delivered the same trace at 1523.81 envelopes/event against 132.96
// here (the reference TestSoak256Acceptance pins).
func Soak256() Scenario {
	s := Scenario{
		Name: "soak256",
		Fleet: Fleet{
			Arity: 4, Depth: 4,
			R: 2, F: 4, C: 3,
			GossipInterval:     20 * time.Millisecond,
			MembershipInterval: 100 * time.Millisecond,
			SuspectAfter:       600 * time.Millisecond,
			Classes:            4,
		},
		Nodes:     256,
		Bootstrap: BootstrapOracle,
		Loss:      0.02,
		QueueLen:  2048,
		Horizon:   2600 * time.Millisecond,
		// Interest locality by top-level subtree, as in the other fleet-scale
		// campaigns.
		SubscriptionFor: subtreeClass(4),
	}
	// Eight publishers, two per top-level subtree, each publishing two
	// events every 20ms from t=200ms to t=2.2s (~800 events), staggered by
	// 2ms so rounds interleave rather than synchronize.
	for k, idx := range []int{0, 17, 64, 81, 128, 145, 192, 209} {
		off := time.Duration(k) * 2 * time.Millisecond
		s.StreamAt(200*time.Millisecond+off, 2200*time.Millisecond, 20*time.Millisecond, idx, 2, -1)
	}
	// Churn mid-stream: a crash wave, an interest-flux wave, a partial
	// rejoin — throughput must be sustained through membership movement.
	s.CrashAt(900*time.Millisecond, 16).
		FluxAt(1200*time.Millisecond, 16).
		RejoinAt(1700*time.Millisecond, 8)
	return s
}

// Noisy64 is the quick bursty-link campaign and the base of the linked
// frontier cells (internal/experiments): Frontier64's sustained stream, but
// the ambient Bernoulli loss replaced by per-link Gilbert–Elliott chains —
// ~9% stationary loss arriving in bursts of mean length 5, the regime where
// a uniform loss assumption under-budgets some links and over-budgets
// others. Coding is off here; the frontier cells set fan-out and coding
// scenario-side.
func Noisy64() Scenario {
	s := Frontier64()
	s.Name = "noisy64"
	s.Loss = 0
	s.Link = transport.LinkModel{
		BadLoss: 1,
		PGB:     0.02, // enter a burst every ~50 messages
		PBG:     0.20, // mean burst length 5; stationary loss 0.02/0.22 ≈ 9.1%
	}
	// Frontier64's 200ms post-stream tail is tighter than the depth
	// budgets' worst-case descent, so with it the campaign measures horizon
	// truncation, not loss: every fan-out variant loses its last events'
	// deep deliveries regardless of how robustly they gossip. The frontier
	// cells need reliability differences to be loss-driven, so give the tail
	// enough rounds for any arm's full descent.
	s.Horizon = 1900 * time.Millisecond
	return s
}

// Noisy256 is the fleet-scale bursty-link campaign: 256 nodes whose links
// run Gilbert–Elliott chains (~9% stationary loss in mean-length-5 bursts)
// plus per-link latency jitter, with eight publishers streaming through a
// mid-run crash wave. Coding is on (k=8, r=1): the report's reliability,
// bytes/event and fec_* fields are the loss response's headline numbers
// under correlated loss.
func Noisy256() Scenario {
	s := Soak256()
	s.Name = "noisy256"
	s.Fleet.FECSources, s.Fleet.FECRepairs = 8, 1
	s.Loss = 0
	s.Link = transport.LinkModel{
		BadLoss:   1,
		PGB:       0.02,
		PBG:       0.20,
		JitterMin: 200 * time.Microsecond,
		JitterMax: 3 * time.Millisecond,
	}
	return s
}

// Bursty1024 is the scale campaign under correlated loss: Churn1024's fleet
// and churn schedule, with the ambient 2% Bernoulli loss replaced by
// deeper Gilbert–Elliott bursts (~9% stationary loss, mean burst length 10
// — a link that goes bad stays bad for most of a gossip round's fan-out).
// Coding is on (k=8, r=1) and the report's bytes/event includes what its
// repairs spend; jitter is left off so the campaign stays delay-free and
// fast at 1024 nodes.
func Bursty1024() Scenario {
	s := Churn1024()
	s.Name = "bursty1024"
	s.Fleet.FECSources, s.Fleet.FECRepairs = 8, 1
	s.Loss = 0
	s.Link = transport.LinkModel{
		BadLoss: 1,
		PGB:     0.01,
		PBG:     0.10,
	}
	return s
}

// Soak4k is the entry-level fleet-scale campaign: a 4096-node fleet (the
// regular 4^6 tree) under ambient loss and jittered per-link delays, with a
// publish wave on each side of a 64-node crash. The jitter matters: every
// delivery lands at its own virtual instant, which is exactly the regime
// where pumping the whole fleet per instant goes quadratic and pumping only
// the nodes an instant touched (the loop's dirty set) does not.
func Soak4k() Scenario {
	s := Scenario{
		Name: "soak4k",
		Fleet: Fleet{
			Arity: 4, Depth: 6,
			R: 2, F: 4, C: 3,
			GossipInterval:     40 * time.Millisecond,
			MembershipInterval: 300 * time.Millisecond,
			SuspectAfter:       900 * time.Millisecond,
			Classes:            4,
			DeliveryBuffer:     256,
		},
		Nodes:           4096,
		Bootstrap:       BootstrapOracle,
		Loss:            0.01,
		MinDelay:        500 * time.Microsecond,
		MaxDelay:        2 * time.Millisecond,
		QueueLen:        256,
		Horizon:         2000 * time.Millisecond,
		Shards:          8,
		SubscriptionFor: subtreeClass(4),
	}
	s.PublishAt(200*time.Millisecond, -1, 4, -1).
		CrashAt(500*time.Millisecond, 64).
		PublishAt(900*time.Millisecond, -1, 4, -1)
	return s
}

// Churn16k is the headline campaign of the PR 8 sweep: a 16384-node fleet (the
// regular 4^7 tree) with jittered delays, a 256-node crash wave detected and
// expelled mid-run, a partial rejoin, and publish waves probing the healthy,
// wounded and healed fleet. Between the membership beacons and the gossip
// fan-out, hundreds of thousands of deliveries each occupy their own jittered
// instant — a fleet-wide pump per instant (the loop PR 14 deleted) paid for
// the whole fleet on every one of them, the dirty-set loop pays for the
// touched node only, and the gap between those two was PR 8's 24.8×
// speedup headline.
func Churn16k() Scenario {
	s := Scenario{
		Name: "churn16k",
		Fleet: Fleet{
			Arity: 4, Depth: 7,
			R: 2, F: 4, C: 3,
			// 25ms rounds: a depth-7 descent takes ~40 gossip rounds, so the
			// publish waves need round throughput, not wire throughput — a
			// shorter round costs nothing per-round (gossip only sends when
			// events are buffered) but halves the virtual time each wave
			// needs to reach the whole audience.
			GossipInterval:     25 * time.Millisecond,
			MembershipInterval: 400 * time.Millisecond,
			SuspectAfter:       1200 * time.Millisecond,
			Classes:            4,
			DeliveryBuffer:     256,
		},
		Nodes:           16384,
		Bootstrap:       BootstrapOracle,
		Loss:            0.01,
		MinDelay:        1 * time.Millisecond,
		MaxDelay:        4 * time.Millisecond,
		QueueLen:        256,
		Horizon:         2500 * time.Millisecond,
		Shards:          8,
		SubscriptionFor: subtreeClass(4),
	}
	// The crash wave lands at 600ms and is expelled by ~2.4s (deadline
	// 1200ms, sweeps every 600ms); rejoins follow at 1.4s. Publishes probe
	// the healthy fleet, the fleet with 256 undetected corpses in its
	// views, and the post-rejoin fleet — each with enough rounds left
	// before the horizon for a full depth-7 descent.
	s.PublishAt(200*time.Millisecond, -1, 4, -1).
		CrashAt(600*time.Millisecond, 256).
		PublishAt(900*time.Millisecond, -1, 4, -1).
		RejoinAt(1400*time.Millisecond, 128).
		PublishAt(1600*time.Millisecond, -1, 4, -1)
	return s
}

// Soak64k is the scale-ceiling campaign of the PR 8 sweep: 65536 nodes — the
// regular 4^8 tree, two orders of magnitude past the paper's own evaluation —
// publishing four event waves through interest-clustered subtrees. The fixed
// 2ms link delay is deliberate: delays keep the lookahead window real (the
// workers genuinely run in parallel), while their uniformity keeps deliveries
// clustered onto a few instants per gossip round. Membership is frozen (digest
// interval past the horizon, detection off) — at 64k the roster beacons alone
// would dominate the wire, and what this campaign measures is dissemination at
// scale, with per-node memory compaction (shared roster, small queues)
// reported as MB/node.
func Soak64k() Scenario {
	s := Scenario{
		Name: "soak64k",
		Fleet: Fleet{
			Arity: 4, Depth: 8,
			R: 2, F: 4, C: 3,
			// A depth-8 descent needs ~5-6 gossip rounds per tree level
			// (empirically: depth 6 completes in ~30 rounds, depth 7 in
			// ~40), so the horizon must hold 50+ rounds after the last
			// publish. 20ms rounds buy that throughput without touching
			// wire cost — gossip only sends when events are buffered.
			GossipInterval:     20 * time.Millisecond,
			MembershipInterval: 10 * time.Second, // one per horizon: frozen
			SuspectAfter:       time.Hour,        // detection off
			Classes:            4,
			DeliveryBuffer:     64,
		},
		Nodes:           65536,
		Bootstrap:       BootstrapOracle,
		Loss:            0.005,
		MinDelay:        2 * time.Millisecond,
		MaxDelay:        2 * time.Millisecond,
		QueueLen:        64,
		Horizon:         1200 * time.Millisecond,
		Shards:          8,
		SubscriptionFor: subtreeClass(4),
	}
	s.PublishAt(50*time.Millisecond, -1, 2, -1).
		PublishAt(150*time.Millisecond, -1, 2, -1)
	return s
}

// subtreeClass subscribes a node to class b = (first-level digit mod k): the
// interest locality by top-level subtree that keeps the tree's summaries
// tight.
func subtreeClass(k int) func(addr.Address, int) interest.Subscription {
	return func(a addr.Address, _ int) interest.Subscription {
		return interest.NewSubscription().Where("b", interest.EqInt(int64(a.Digit(1)%k)))
	}
}

// manyAttrTopics is the string-attribute vocabulary of the ManyAttr512
// workload.
const manyAttrTopics = 32

// manyAttrSub draws one high-cardinality multi-attribute subscription,
// deterministically from (index, salt): a 16-of-64 class set on the integer
// attribute b (compiling to a binary-searched point-interval array), an
// 8-of-32 topic set on the string attribute e (compiling to a hashed set),
// a half-width band on the float attribute c, and — for half the nodes — a
// threshold on the integer attribute z. Selectivity multiplies out to a few
// percent, so a 512-node fleet yields double-digit audiences per event
// while the regrouped summaries up the tree stay far wider than any single
// interest — the regime where forwarding-path matching dominates.
func manyAttrSub(index int, salt int64) interest.Subscription {
	rng := rand.New(rand.NewSource(int64(index)*0x9e3779b9 + salt*0x85ebca6b + 1))
	ivs := make([]interest.Interval, 0, 16)
	for _, k := range rng.Perm(64)[:16] {
		ivs = append(ivs, interest.PointInterval(float64(k)))
	}
	topics := make([]string, 0, 8)
	for _, k := range rng.Perm(manyAttrTopics)[:8] {
		topics = append(topics, fmt.Sprintf("t%02d", k))
	}
	lo := rng.Float64() * 500
	sub := interest.NewSubscription().
		Where("b", interest.InIntervals(ivs...)).
		Where("e", interest.OneOf(topics...)).
		Where("c", interest.Between(lo, lo+500))
	if index%2 == 0 {
		sub = sub.Where("z", interest.Ge(float64(rng.Intn(50000))))
	}
	return sub
}

// ManyAttr512 is the high-cardinality matching campaign: 512 nodes (the
// regular 8^3 tree) whose subscriptions constrain four attributes at once —
// multi-point integer sets, hashed string sets, float bands, open integer
// thresholds — against a sustained stream of four-attribute events, with
// two mid-run subscription-flux waves redrawing 32 interests each. Every
// susceptibility test walks this structure, so the campaign is the matching
// engine's workload: its report's match_evals_per_event and
// match_micros_per_round are the metrics the compiled+cached path is
// measured by (naively, every buffered event re-pays the full walk every
// round of every node).
func ManyAttr512() Scenario {
	s := Scenario{
		Name: "manyattr512",
		Fleet: Fleet{
			Arity: 8, Depth: 3,
			R: 2, F: 4, C: 3,
			GossipInterval:     20 * time.Millisecond,
			MembershipInterval: 100 * time.Millisecond,
			SuspectAfter:       600 * time.Millisecond,
			Classes:            64,
		},
		Nodes:     512,
		Bootstrap: BootstrapOracle,
		Loss:      0.01,
		QueueLen:  2048,
		Horizon:   2 * time.Second,
		SubscriptionFor: func(_ addr.Address, index int) interest.Subscription {
			return manyAttrSub(index, 0)
		},
		// Events carry the full four-attribute shape the subscriptions
		// constrain; the class drives b so event/interest correlation stays
		// controlled while c, e and z are drawn per event.
		EventFor: func(class int64, rng *rand.Rand) map[string]event.Value {
			return map[string]event.Value{
				"b": event.Int(class),
				"c": event.Float(rng.Float64() * 1000),
				"e": event.Str(fmt.Sprintf("t%02d", rng.Intn(manyAttrTopics))),
				"z": event.Int(int64(rng.Intn(100000))),
			}
		},
		// Flux redraws the whole multi-attribute interest (salted by the
		// drawn class), not just a class hop: every wave forces recompiles
		// along the fluxed nodes' root paths and exact cache invalidation on
		// everyone whose views absorbed the new summaries.
		FluxFor: func(_ addr.Address, index int, class int64) interest.Subscription {
			return manyAttrSub(index, class+1)
		},
	}
	// Four publishers spread across top-level subtrees stream two events
	// every 20ms from t=100ms to t=1.8s (~680 events), staggered so rounds
	// interleave; flux waves land mid-stream. Each wave's 32 redraws fan
	// out through anti-entropy, so most of the fleet recompiles summaries
	// while the stream keeps flowing.
	for k, idx := range []int{0, 128, 256, 384} {
		off := time.Duration(k) * 5 * time.Millisecond
		s.StreamAt(100*time.Millisecond+off, 1800*time.Millisecond, 20*time.Millisecond, idx, 2, -1)
	}
	s.FluxAt(700*time.Millisecond, 32).
		FluxAt(1300*time.Millisecond, 32)
	return s
}

// zipfScenario assembles a campaign over a ZipfWorkload: subscriptions,
// flux redraws, event content and popularity buckets all come from the
// workload model; the caller supplies fleet and schedule.
func zipfScenario(s Scenario, w ZipfWorkload) Scenario {
	zw := NewZipfWorkload(w)
	s.Fleet.Classes = zw.Topics
	s.SubscriptionFor = zw.SubscriptionFor
	s.FluxFor = zw.FluxFor
	s.EventFor = zw.EventFor
	s.ClassBucketOf = zw.ClassBucketOf
	return s
}

// Zipf64 is the smoke-sized skewed-subscription campaign: 64 nodes over a
// 256-topic Zipf(α=1) vocabulary with heavy-tailed per-node topic counts and
// subtree-rotated locality, publishing Zipf-distributed events through two
// flash-crowd flux waves that invert the popularity ranking. Small enough
// for the golden-trace pins and the shard-equivalence matrix (link delays
// keep the conservative window real), while exercising every skew mechanism
// zipf1m runs at scale: its report carries class_reliability,
// summary_false_positive_rate and the fold_recompiles axis.
func Zipf64() Scenario {
	s := Scenario{
		Name: "zipf64",
		Fleet: Fleet{
			Arity: 4, Depth: 3,
			R: 2, F: 3, C: 3,
			GossipInterval:     20 * time.Millisecond,
			MembershipInterval: 100 * time.Millisecond,
			SuspectAfter:       600 * time.Millisecond,
		},
		Nodes:     64,
		Bootstrap: BootstrapOracle,
		Loss:      0.005,
		MinDelay:  500 * time.Microsecond,
		MaxDelay:  2 * time.Millisecond,
		QueueLen:  2048,
		Horizon:   2 * time.Second,
	}
	s = zipfScenario(s, zipf64Workload())
	s.PublishAt(200*time.Millisecond, -1, 4, -1).
		FluxAt(600*time.Millisecond, 16).
		PublishAt(900*time.Millisecond, -1, 4, -1).
		FluxAt(1200*time.Millisecond, 16).
		PublishAt(1500*time.Millisecond, -1, 4, -1)
	return s
}

// zipf64Workload is Zipf64's workload model.
func zipf64Workload() ZipfWorkload {
	return ZipfWorkload{
		Topics:   256,
		Alpha:    1.0,
		MeanSubs: 24,
		MaxSubs:  128,
		Locality: 0.8,
		Arity:    4,
	}
}

// Zipf1M is the million-subscription campaign of PR 10: the soak4k fabric
// (4096 nodes, the regular 4^6 tree, jittered link delays, eight shards) under
// a 4096-topic Zipf(α=1) vocabulary whose truncated-Pareto per-node topic
// counts total over a million subscriptions fleet-wide
// (ZipfWorkload.TotalSubscriptions is the acceptance check). Two flash-crowd
// flux waves invert the popularity ranking mid-run — the workload that made
// unbounded fold caches and per-recompute view invalidation unaffordable, and
// the measurement bed for the shared-summary matcher: fold_recompiles,
// class_reliability and summary_false_positive_rate are its headline report
// fields.
func Zipf1M() Scenario {
	s := Scenario{
		Name: "zipf1m",
		Fleet: Fleet{
			Arity: 4, Depth: 6,
			// C=4: tail topics draw audiences of a couple hundred out of
			// 4096, and the sparser the audience the closer the Pittel
			// round estimate runs to the wire — one extra round of margin
			// keeps the tail's reliability at the head's level.
			R: 2, F: 4, C: 4,
			GossipInterval:     40 * time.Millisecond,
			MembershipInterval: 300 * time.Millisecond,
			SuspectAfter:       900 * time.Millisecond,
			DeliveryBuffer:     256,
		},
		Nodes:     4096,
		Bootstrap: BootstrapOracle,
		// Mild ambient loss: this campaign's subject is subscription scale
		// and fold churn, not loss resilience — the acceptance bar is 0.999
		// reliability, so the loss stays an order below soak4k's.
		Loss:     0.001,
		MinDelay: 500 * time.Microsecond,
		MaxDelay: 2 * time.Millisecond,
		QueueLen: 256,
		Horizon:  2600 * time.Millisecond,
		Shards:   8,
	}
	s = zipfScenario(s, zipf1MWorkload())
	// The second publish wave trails the first flux wave by two membership
	// intervals: a fluxed subscription needs its new summary folded into
	// the fleet's views before events published against it can route — a
	// wave published into still-stale summaries measures anti-entropy lag,
	// not regrouping. The second flux wave lands mid-descent of wave two,
	// exercising fold churn against in-flight events (fluxed-out nodes
	// leave those events' eligible sets).
	s.PublishAt(200*time.Millisecond, -1, 4, -1).
		FluxAt(500*time.Millisecond, 64).
		PublishAt(1150*time.Millisecond, -1, 4, -1).
		FluxAt(1500*time.Millisecond, 64)
	return s
}

// zipf1MWorkload is Zipf1M's workload model, shared with the acceptance
// test's subscription-count check.
func zipf1MWorkload() ZipfWorkload {
	return ZipfWorkload{
		Topics:   4096,
		Alpha:    1.0,
		MeanSubs: 330,
		MaxSubs:  2048,
		Locality: 0.8,
		Arity:    4,
	}
}

// Churn1024 is the scale campaign: a 1024-node fleet (the regular 4^5
// tree) under ambient loss, hit by a 64-node crash wave, a rejoin wave and
// subscription flux, publishing before, during and after the churn. On the
// virtual clock the whole campaign — three seconds of fleet time — runs in
// well under five seconds of wall clock.
func Churn1024() Scenario {
	s := Scenario{
		Name: "churn1024",
		Fleet: Fleet{
			// The deep narrow tree (4^5) keeps subgroups at 4, so the
			// heartbeat beacon costs 3 sends per node per interval and the
			// roster digests stay the only O(n) periodic work.
			Arity: 4, Depth: 5,
			R: 2, F: 4, C: 3,
			GossipInterval:     25 * time.Millisecond,
			MembershipInterval: 300 * time.Millisecond,
			SuspectAfter:       900 * time.Millisecond,
			Classes:            4,
		},
		Nodes:     1024,
		Bootstrap: BootstrapOracle,
		Loss:      0.02,
		// 2048 is 4× the deepest queue the campaign actually reaches (the
		// engine drains every instant; outcomes are identical down to 512)
		// while keeping the eager per-endpoint buffers off the allocation
		// profile — 8192 here cost ~2s of wall clock in zeroing alone.
		QueueLen: 2048,
		Horizon:  3 * time.Second,
		// Interest locality: subscriptions cluster by top-level subtree
		// (see Lossy256); flux then scatters 64 of them.
		SubscriptionFor: subtreeClass(4),
	}
	// The crash wave lands at 300ms and is expelled by ~1.2–1.65s (deadline
	// 900ms, sweeps every 450ms). Publishes probe all three regimes: a
	// healthy fleet, a fleet with 64 undetected corpses in its views, and a
	// post-churn fleet after rejoins and subscription flux.
	s.PublishAt(200*time.Millisecond, -1, 4, -1).
		CrashAt(300*time.Millisecond, 64).
		PublishAt(800*time.Millisecond, -1, 4, -1).
		RejoinAt(1700*time.Millisecond, 32).
		FluxAt(1900*time.Millisecond, 32).
		PublishAt(2300*time.Millisecond, -1, 4, -1)
	return s
}
