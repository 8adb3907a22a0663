// Package harness is the deterministic scenario engine: it runs fleets of
// real node.Node runtimes on one virtual clock (internal/clock) over the
// in-memory fabric, composing loss/partition/heal schedules, node churn
// (join/crash/rejoin waves) and subscription flux into seeded campaigns.
// Each node is the same staged engine production runs concurrently, driven
// synchronously at parallelism 0 through the step-mode API — which is why
// the traces pinned in golden_test.go survive runtime refactors unchanged.
//
// Everything in a run — gossip ticks, membership digests, failure sweeps,
// delayed message deliveries, fault injections — is a callback on a single
// virtual-time event queue, executed by one event loop (shard.go) in an order
// that does not depend on how many workers it runs, so a scenario run
// with the same seed replays byte-identically: the delivery trace (who
// delivered which event at which virtual instant, in which order) is the
// reproducibility contract, and 1000-node campaigns that would take minutes
// of wall-clock finish in milliseconds.
package harness

import (
	"fmt"
	"math/rand"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/event"
	"pmcast/internal/interest"
	"pmcast/internal/transport"
)

// Bootstrap selects how the initial fleet learns about itself.
type Bootstrap string

const (
	// BootstrapOracle seeds every node's membership with the full initial
	// fleet, as if anti-entropy had already converged — the fast start for
	// large campaigns whose subject is churn, not cold-start joining.
	BootstrapOracle Bootstrap = "oracle"
	// BootstrapJoin bootstraps through the real join protocol: every node
	// joins through node 0 and convergence happens by digest anti-entropy,
	// all in virtual time.
	BootstrapJoin Bootstrap = "join"
)

// Fleet parameterizes every node of a scenario (mirroring node.Config).
type Fleet struct {
	// Arity and Depth define the regular address space; its capacity bounds
	// the fleet plus any fresh joiners.
	Arity, Depth int
	// R, F, C are the paper's redundancy factor, gossip fanout and Pittel
	// constant.
	R, F int
	C    float64
	// GossipInterval, MembershipInterval and SuspectAfter drive the periodic
	// tasks (all in virtual time).
	GossipInterval     time.Duration
	MembershipInterval time.Duration
	SuspectAfter       time.Duration
	// DeliveryBuffer sizes each node's delivery channel; the engine drains
	// it after every virtual instant, so bursts rarely need more than the
	// default.
	DeliveryBuffer int
	// FECRepairs and FECSources configure the coding layer fleet-wide
	// (node.Config.FECRepairs/FECSources): each gossip round's outgoing
	// events are grouped into generations of FECSources symbols carrying
	// FECRepairs repair symbols. 0 repairs disables coding — the exact
	// pre-FEC wire path, so seeded traces are unchanged.
	FECRepairs int
	FECSources int
	// Classes partitions interests: node i subscribes to attribute "b" ==
	// i mod Classes unless SubscriptionFor overrides it, and published
	// events carry one class value.
	Classes int
}

// Scenario is one named, seeded chaos campaign: a fleet, its bootstrap, the
// ambient fault model, and a schedule of timed operations.
type Scenario struct {
	Name  string
	Fleet Fleet
	// Nodes is the initial fleet size (addresses 0 … Nodes−1 of the space).
	Nodes int
	// Bootstrap is how the fleet converges initially (default oracle).
	Bootstrap Bootstrap
	// Loss, MinDelay, MaxDelay and QueueLen configure the fabric's ambient
	// fault model (see transport.Config). Non-zero delays turn every message
	// into its own virtual-time event.
	Loss               float64
	MinDelay, MaxDelay time.Duration
	// Link configures the fabric's correlated fault model: per-link
	// Gilbert–Elliott bursty loss plus latency jitter (transport.LinkModel).
	// The zero value is disabled and leaves seeded traces untouched.
	Link     transport.LinkModel
	QueueLen int
	// Horizon is the virtual duration of the campaign.
	Horizon time.Duration
	// Shards is how many workers the event loop (shard.go) partitions the
	// fleet across; 1 — the default — is one worker running inline on the
	// caller's goroutine. The merged delivery trace is byte-identical at
	// any count. A scenario with zero link lookahead (MinDelay and JitterMin
	// both zero) hands messages over synchronously and always runs on one
	// worker; Report.Shards records what actually ran.
	Shards int
	// Ops is the schedule, executed at their virtual offsets.
	Ops []Op
	// SubscriptionFor overrides the modular class scheme (optional). It must
	// be deterministic; the engine re-evaluates matching against it. At
	// campaign start it is called for the whole initial fleet concurrently,
	// in no fixed order, so it must be safe for concurrent use: a pure
	// function of address and index.
	SubscriptionFor func(a addr.Address, index int) interest.Subscription
	// EventFor overrides published event content (optional): given the
	// drawn class and the engine RNG it returns the attribute map of one
	// event. Nil keeps the single-attribute {"b": class} scheme. It must
	// consume the RNG deterministically — its draws are part of the seeded
	// schedule. The high-cardinality workloads use this to publish
	// multi-attribute events against multi-attribute subscriptions.
	EventFor func(class int64, rng *rand.Rand) map[string]event.Value
	// FluxFor overrides what subscription an OpFlux wave installs
	// (optional): given the node and the drawn class it returns the new
	// interest. Nil keeps the single-class re-subscription. Must be
	// deterministic.
	FluxFor func(a addr.Address, index int, class int64) interest.Subscription
	// ClassBucketOf maps a published event's class to a popularity bucket
	// (optional). When set, the report carries a class_reliability breakdown
	// — one row per bucket — so skewed workloads can see how the tail of the
	// popularity distribution fares against the head. Must be deterministic
	// and return values in [0, NumClassBuckets).
	ClassBucketOf   func(class int64) int
	NumClassBuckets int
	// MeasureSummaryFPR maintains a shadow membership tree mirroring the
	// fleet's churn and flux, and scores every published event against it:
	// reach through the summary hierarchy vs. truly interested members. The
	// surplus is the regrouping false-positive rate
	// (summary_false_positive_rate, and per bucket in class_reliability).
	// Purely observational — the shadow tree handles no protocol traffic and
	// consumes no engine randomness, so seeded traces are unchanged.
	MeasureSummaryFPR bool
}

// OpKind enumerates schedulable operations.
type OpKind string

// The operation vocabulary of the scenario DSL.
const (
	// OpPublish publishes Count events of class Class from node Node.
	OpPublish OpKind = "publish"
	// OpCrash hard-stops Count random alive nodes (no leave message).
	OpCrash OpKind = "crash"
	// OpRejoin revives Count crashed nodes (same address, same interests)
	// through the join protocol.
	OpRejoin OpKind = "rejoin"
	// OpJoin brings Count brand-new nodes (fresh addresses) into the fleet
	// through the join protocol.
	OpJoin OpKind = "join"
	// OpIsolate partitions Count random alive nodes from everyone.
	OpIsolate OpKind = "isolate"
	// OpHeal removes every partition rule.
	OpHeal OpKind = "heal"
	// OpFlux re-subscribes Count random alive nodes to a random class.
	OpFlux OpKind = "flux"
)

// Op is one scheduled operation.
type Op struct {
	// At is the virtual offset from scenario start.
	At   time.Duration
	Kind OpKind
	// Node selects a publisher index; −1 picks a deterministic random
	// publisher among never-crashed alive nodes.
	Node int
	// Count scales wave-style operations (events, victims, joiners).
	Count int
	// Class is the published/re-subscribed class; −1 picks at random.
	Class int64
}

// The fluent schedule builders below make scenario definitions read like a
// timeline; each returns the scenario for chaining.

// PublishAt schedules count publishes of class from node (−1 = random).
func (s *Scenario) PublishAt(at time.Duration, node, count int, class int64) *Scenario {
	s.Ops = append(s.Ops, Op{At: at, Kind: OpPublish, Node: node, Count: count, Class: class})
	return s
}

// StreamAt schedules a sustained publish stream: count events of class
// (−1 = random) from node (−1 = random) every period, from start until
// before end — the workload shape of the soak scenarios. It expands to plain
// publish ops, so the engine needs no new machinery and the schedule stays
// inspectable in the report.
func (s *Scenario) StreamAt(start, end, period time.Duration, node, count int, class int64) *Scenario {
	for at := start; at < end; at += period {
		s.PublishAt(at, node, count, class)
	}
	return s
}

// CrashAt schedules a crash wave of count nodes.
func (s *Scenario) CrashAt(at time.Duration, count int) *Scenario {
	s.Ops = append(s.Ops, Op{At: at, Kind: OpCrash, Count: count})
	return s
}

// RejoinAt schedules a rejoin wave of count previously crashed nodes.
func (s *Scenario) RejoinAt(at time.Duration, count int) *Scenario {
	s.Ops = append(s.Ops, Op{At: at, Kind: OpRejoin, Count: count})
	return s
}

// IsolateAt schedules a partition isolating count random nodes.
func (s *Scenario) IsolateAt(at time.Duration, count int) *Scenario {
	s.Ops = append(s.Ops, Op{At: at, Kind: OpIsolate, Count: count})
	return s
}

// HealAt schedules the removal of every partition rule.
func (s *Scenario) HealAt(at time.Duration) *Scenario {
	s.Ops = append(s.Ops, Op{At: at, Kind: OpHeal})
	return s
}

// FluxAt schedules a subscription-flux wave over count random nodes.
func (s *Scenario) FluxAt(at time.Duration, count int) *Scenario {
	s.Ops = append(s.Ops, Op{At: at, Kind: OpFlux, Count: count})
	return s
}

// withDefaults fills unset knobs, mirroring node.Config's defaults.
func (s Scenario) withDefaults() (Scenario, error) {
	f := &s.Fleet
	if f.Arity <= 0 || f.Depth <= 0 {
		return s, fmt.Errorf("harness: scenario %q needs a positive Arity and Depth", s.Name)
	}
	if f.R <= 0 {
		f.R = 2
	}
	if f.F <= 0 {
		f.F = 3
	}
	if f.C == 0 {
		f.C = 3
	}
	if f.GossipInterval <= 0 {
		f.GossipInterval = 25 * time.Millisecond
	}
	if f.MembershipInterval <= 0 {
		f.MembershipInterval = 4 * f.GossipInterval
	}
	if f.SuspectAfter <= 0 {
		f.SuspectAfter = 20 * f.MembershipInterval
	}
	if f.DeliveryBuffer <= 0 {
		f.DeliveryBuffer = 1024
	}
	if f.Classes <= 0 {
		f.Classes = 2
	}
	if s.Nodes <= 0 {
		return s, fmt.Errorf("harness: scenario %q needs a positive node count", s.Name)
	}
	if s.Bootstrap == "" {
		s.Bootstrap = BootstrapOracle
	}
	if s.QueueLen <= 0 {
		// Inbox channels are allocated eagerly per endpoint, so the queue
		// bound is fleet-sized RAM and zeroing cost up front (n·QueueLen
		// envelope slots — ~780MB at 1024×8192, a fifth of churn1024's wall
		// clock in memclr alone). The engine pumps every inbox to
		// quiescence at each virtual instant, so observed depths stay far
		// below even this default; campaigns that want more headroom set
		// QueueLen explicitly.
		s.QueueLen = 1024
	}
	if s.Horizon <= 0 {
		s.Horizon = 2 * time.Second
	}
	if s.Shards <= 0 {
		s.Shards = 1
	}
	return s, nil
}

// lookahead is the conservative-engine window length: the minimum virtual
// duration any event executed now needs before its consequences can come due.
// Every fabric delivery waits at least MinDelay plus JitterMin, and every
// periodic-task chain reschedules at least its own interval ahead, so during
// a window of this length the due-event set is fixed at the window's start.
// Zero (a fabric that can deliver synchronously) shrinks the window to one
// instant and the loop to one worker.
func (s *Scenario) lookahead() time.Duration {
	var link time.Duration
	if s.MaxDelay > 0 {
		link = s.MinDelay
	}
	if s.Link.JitterMax > 0 {
		link += s.Link.JitterMin
	}
	if link <= 0 {
		return 0
	}
	la := link
	for _, d := range []time.Duration{
		s.Fleet.GossipInterval,
		s.Fleet.MembershipInterval,
		s.Fleet.SuspectAfter / 2,
	} {
		if d < la {
			la = d
		}
	}
	return la
}

// subscriptionFor evaluates the scenario's interest scheme for one node.
func (s *Scenario) subscriptionFor(a addr.Address, index int) interest.Subscription {
	if s.SubscriptionFor != nil {
		return s.SubscriptionFor(a, index)
	}
	return interest.NewSubscription().
		Where("b", interest.EqInt(int64(index%s.Fleet.Classes)))
}
