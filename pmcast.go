// Package pmcast is a Go implementation of Probabilistic Multicast (pmcast),
// the gossip-based multicast algorithm of Eugster & Guerraoui (DSN 2002):
// scalable, probabilistically reliable dissemination of content-based
// publish/subscribe events to exactly the interested subset of a large
// process group.
//
// The package is a thin facade over the implementation packages:
//
//   - live nodes:      NewNetwork / NewNode → Publish / Subscribe / Deliveries
//   - subscriptions:   Where + Gt/Lt/Between/OneOf/EqInt criteria
//   - simulation:      NewSimulator (the paper's Monte-Carlo evaluation)
//   - analysis:        NewTreeModel (the paper's stochastic model, Eq. 3–18)
//
// Nodes run over a pluggable Transport: the in-memory simulation fabric
// (NewNetwork) or real UDP sockets (NewUDPTransport). The live runtime is a
// staged engine — one protocol goroutine reading and handling the inbox,
// parallel encode/send workers sized by NodeConfig's EncodeWorkers; the
// default 0 is the serial, deterministic configuration. Quickstart:
//
//	net := pmcast.MustNetwork(pmcast.NetworkConfig{})
//	space := pmcast.MustRegularSpace(4, 2) // 16 addresses: x.y, 0 ≤ x,y < 4
//	n, _ := pmcast.NewNode(net, pmcast.NodeConfig{
//		Addr:         pmcast.MustParseAddress("0.1"),
//		Space:        space,
//		R:            2,
//		F:            3,
//		C:            2,
//		Subscription: pmcast.Where("price", pmcast.Gt(100)),
//	})
//	n.Start()
//	defer n.Stop()
//
// See the examples directory for runnable programs and DESIGN.md for the
// system inventory.
package pmcast

import (
	"pmcast/internal/addr"
	"pmcast/internal/analysis"
	"pmcast/internal/clock"
	"pmcast/internal/event"
	"pmcast/internal/interest"
	"pmcast/internal/node"
	"pmcast/internal/sim"
	"pmcast/internal/transport"
	"pmcast/internal/transport/udp"
)

// Addressing (paper Section 2.2).
type (
	// Address is a hierarchical process address x(1).….x(d).
	Address = addr.Address
	// Prefix is a partial address denoting a subgroup.
	Prefix = addr.Prefix
	// Space bounds an address space (depth and per-depth arities).
	Space = addr.Space
)

// ParseAddress parses a dotted address such as "128.178.73.3".
func ParseAddress(s string) (Address, error) { return addr.Parse(s) }

// MustParseAddress is ParseAddress that panics on error.
func MustParseAddress(s string) Address { return addr.MustParse(s) }

// NewAddress builds an address from digit components.
func NewAddress(digits ...int) Address { return addr.New(digits...) }

// NewSpace builds an address space with the given per-depth arities.
func NewSpace(arities ...int) (Space, error) { return addr.NewSpace(arities...) }

// RegularSpace builds the regular space of the paper's model: depth d,
// constant arity a, capacity a^d.
func RegularSpace(a, d int) (Space, error) { return addr.Regular(a, d) }

// MustRegularSpace is RegularSpace that panics on error.
func MustRegularSpace(a, d int) Space { return addr.MustRegular(a, d) }

// Events and typed attribute values.
type (
	// Event is an immutable set of named typed attributes.
	Event = event.Event
	// EventID uniquely identifies an event.
	EventID = event.ID
	// Value is a typed attribute value.
	Value = event.Value
	// EventBuilder accumulates attributes.
	EventBuilder = event.Builder
)

// Attribute value constructors.
var (
	// Int builds an integer attribute value.
	Int = event.Int
	// Float builds a floating-point attribute value.
	Float = event.Float
	// Str builds a string attribute value.
	Str = event.Str
	// Bool builds a boolean attribute value.
	Bool = event.Bool
)

// NewEventBuilder returns an empty event builder.
func NewEventBuilder() *EventBuilder { return event.NewBuilder() }

// Subscriptions (paper Section 2.3, Figure 2).
type (
	// Subscription is a conjunction of per-attribute criteria.
	Subscription = interest.Subscription
	// Criterion constrains a single attribute.
	Criterion = interest.Criterion
	// Summary is a regrouped (compacted, over-approximated) disjunction of
	// subscriptions, as carried by view lines.
	Summary = interest.Summary
)

// Criterion constructors, mirroring the paper's interest language.
var (
	// Gt matches numeric values strictly greater than x.
	Gt = interest.Gt
	// Ge matches numeric values ≥ x.
	Ge = interest.Ge
	// Lt matches numeric values strictly less than x.
	Lt = interest.Lt
	// Le matches numeric values ≤ x.
	Le = interest.Le
	// Between matches the open interval (lo, hi).
	Between = interest.Between
	// BetweenIncl matches the closed interval [lo, hi].
	BetweenIncl = interest.BetweenIncl
	// EqInt matches exactly the integer x.
	EqInt = interest.EqInt
	// EqFloat matches exactly the float x.
	EqFloat = interest.EqFloat
	// OneOf matches any of the given strings.
	OneOf = interest.OneOf
	// IsBool matches the boolean constant b.
	IsBool = interest.IsBool
	// AnyValue is the wildcard criterion.
	AnyValue = interest.Any
)

// Where starts a subscription with one criterion; chain further constraints
// with Subscription.Where.
func Where(attr string, c Criterion) Subscription {
	return interest.NewSubscription().Where(attr, c)
}

// MatchAll returns the subscription matching every event.
func MatchAll() Subscription { return interest.NewSubscription() }

// Summarize regroups subscriptions into an over-approximating summary.
func Summarize(subs ...Subscription) *Summary { return interest.Summarize(subs...) }

// Time. Everything time-dependent in the runtime — gossip tickers, failure
// sweeps, delayed fabric deliveries — goes through a Clock, so the same
// code runs on real timers in production and deterministically on a
// virtual-time event queue in tests.
type (
	// Clock tells time and schedules timers for the runtime.
	Clock = clock.Clock
	// VirtualClock is the deterministic clock: time moves only when
	// advanced, and callbacks run in strict order on the advancing
	// goroutine.
	VirtualClock = clock.Virtual
)

// RealClock returns the production clock (package time).
func RealClock() Clock { return clock.Real{} }

// NewVirtualClock returns a virtual clock for deterministic runs.
func NewVirtualClock() *VirtualClock { return clock.NewVirtual() }

// Transport fabric. The runtime depends only on these interfaces; backends
// decide what "the network" is.
type (
	// Transport is a pluggable network fabric processes attach to by
	// address: the in-memory Network, the UDP backend, or any custom
	// implementation.
	Transport = transport.Transport
	// Endpoint is one attached process's network interface.
	Endpoint = transport.Endpoint
	// Envelope is one delivered message.
	Envelope = transport.Envelope
	// Inbox is an endpoint's bounded inbox of envelopes: a custom
	// Endpoint's Inbox method returns one, made by NewInbox.
	Inbox = transport.Inbox
)

// NewInbox returns an empty inbox that holds at most bound envelopes. It
// holds storage only while it holds envelopes.
func NewInbox(bound int) *Inbox { return transport.NewQueue[Envelope](bound) }

// In-memory fabric (the reference Transport, with fault injection).
type (
	// Network is the in-memory transport fabric.
	Network = transport.Network
	// NetworkConfig tunes loss, delay, link models and queue sizes.
	NetworkConfig = transport.Config
	// LinkModel layers Gilbert–Elliott bursty loss and latency jitter on
	// every fabric link (NetworkConfig.Link); the zero value disables it.
	LinkModel = transport.LinkModel
)

// NewNetwork builds an in-memory network fabric. It returns an error for
// inconsistent fault configurations (inverted delay/jitter bounds,
// probabilities outside [0, 1]).
func NewNetwork(cfg NetworkConfig) (*Network, error) { return transport.NewNetwork(cfg) }

// MustNetwork is NewNetwork that panics on a config error — for examples and
// tests with static configurations.
func MustNetwork(cfg NetworkConfig) *Network { return transport.MustNetwork(cfg) }

// UDP fabric (real sockets, wire-codec framing).
type (
	// UDPTransport sends pmcast messages as UDP datagrams.
	UDPTransport = udp.Transport
	// UDPConfig tunes the UDP transport.
	UDPConfig = udp.Config
	// StaticResolver is the UDP transport's address → socket table;
	// entries with port 0 bind ephemeral ports and register themselves.
	StaticResolver = udp.StaticResolver
	// UDPStats is a snapshot of the UDP datapath counters — syscalls,
	// datagrams (their ratio is the kernel-batching amortization),
	// malformed/dropped datagrams and achieved socket buffers.
	UDPStats = udp.Stats
)

// NewUDPTransport builds a UDP transport over the configured resolver.
func NewUDPTransport(cfg UDPConfig) (*UDPTransport, error) { return udp.New(cfg) }

// NewStaticResolver builds a static resolver from dotted pmcast addresses
// to "host:port" strings, e.g. {"0.1": "127.0.0.1:7701"}.
func NewStaticResolver(peers map[string]string) (*StaticResolver, error) {
	return udp.NewStaticResolver(peers)
}

// Live runtime.
type (
	// Node is a live pmcast process.
	Node = node.Node
	// NodeConfig parameterizes a node. Write it as a keyed literal: a
	// field added later then breaks no caller, and an unset field takes its
	// documented default.
	NodeConfig = node.Config
)

// NewNode attaches a new node to a transport fabric; call Start to run it.
// Addr, Space, R and F must be set; every other field has a default.
//
//	n, err := pmcast.NewNode(tr, pmcast.NodeConfig{
//		Addr: a, Space: space, R: 2, F: 3, C: 2, Subscription: sub,
//	})
func NewNode(tr Transport, cfg NodeConfig) (*Node, error) { return node.New(tr, cfg) }

// Simulation (paper Section 5).
type (
	// SimParams configures a Monte-Carlo simulation campaign.
	SimParams = sim.Params
	// SimResult is one simulated dissemination.
	SimResult = sim.Result
	// SimAggregate summarizes a batch of runs.
	SimAggregate = sim.Aggregate
	// Simulator reproduces the paper's evaluation.
	Simulator = sim.Simulator
)

// NewSimulator builds a simulator for the given parameters.
func NewSimulator(p SimParams) (*Simulator, error) { return sim.New(p) }

// Analysis (paper Section 4).
type (
	// TreeParams parameterizes the analytical model.
	TreeParams = analysis.TreeParams
	// TreeModel evaluates reliability and round bounds (Eq. 3–18).
	TreeModel = analysis.TreeModel
)

// NewTreeModel evaluates the paper's stochastic model.
func NewTreeModel(p TreeParams) (*TreeModel, error) { return analysis.NewTreeModel(p) }

// Pittel evaluates the expected number of gossip rounds T(n, F) (Eq. 3).
func Pittel(n, f, c float64) float64 { return analysis.Pittel(n, f, c) }
