package pmcast

import "time"

// NodeOption configures one knob of a node under construction. Options keep
// NewNode's signature stable while NodeConfig grows: adding a knob adds an
// option, never a breaking change.
type NodeOption func(*NodeConfig)

// WithConfig replaces the whole configuration at once — the bulk escape
// hatch for callers that already hold a NodeConfig. Options applied after
// it refine the given config.
func WithConfig(cfg NodeConfig) NodeOption {
	return func(c *NodeConfig) { *c = cfg }
}

// WithAddr sets the node's hierarchical address (its place in the tree).
func WithAddr(a Address) NodeOption {
	return func(c *NodeConfig) { c.Addr = a }
}

// WithSpace sets the shared address space (depth d and arities).
func WithSpace(s Space) NodeOption {
	return func(c *NodeConfig) { c.Space = s }
}

// WithGroupRedundancy sets the paper's redundancy factor R (delegates per
// subgroup).
func WithGroupRedundancy(r int) NodeOption {
	return func(c *NodeConfig) { c.R = r }
}

// WithRedundancy enables the erasure-coding layer: each gossip round's
// outgoing events are grouped into generations of k source symbols, and r
// repair symbols per generation ride the batch envelopes toward the same
// destination subtree. Any k of the k+r symbols reconstruct the
// generation, so a receiver recovers events whose every wire copy was
// lost. r = 0 disables coding entirely — the wire format, fault draws and
// seeded traces are byte-identical to a build without this option.
func WithRedundancy(k, r int) NodeOption {
	return func(c *NodeConfig) {
		c.FECSources = k
		c.FECRepairs = r
	}
}

// WithFanout sets the gossip fanout F.
func WithFanout(f int) NodeOption {
	return func(c *NodeConfig) { c.F = f }
}

// WithPittelC sets Pittel's constant c for round budgets (Eq. 3).
func WithPittelC(v float64) NodeOption {
	return func(c *NodeConfig) { c.C = v }
}

// WithSubscription sets the node's initial interest.
func WithSubscription(sub Subscription) NodeOption {
	return func(c *NodeConfig) { c.Subscription = sub }
}

// WithGossipInterval sets the gossip period P (default 25ms).
func WithGossipInterval(d time.Duration) NodeOption {
	return func(c *NodeConfig) { c.GossipInterval = d }
}

// WithMembershipInterval sets the membership digest period (default
// 4·GossipInterval).
func WithMembershipInterval(d time.Duration) NodeOption {
	return func(c *NodeConfig) { c.MembershipInterval = d }
}

// WithMembershipFanout sets how many peers receive each digest (default 2).
func WithMembershipFanout(f int) NodeOption {
	return func(c *NodeConfig) { c.MembershipFanout = f }
}

// WithSuspectAfter configures the failure detector's silence deadline
// (default 20 membership intervals).
func WithSuspectAfter(d time.Duration) NodeOption {
	return func(c *NodeConfig) { c.SuspectAfter = d }
}

// WithSuspicionSweeps sets how many consecutive over-deadline sweeps expel
// a silent neighbor (default 1; >1 enables the Section 6 confirmation
// phase).
func WithSuspicionSweeps(n int) NodeOption {
	return func(c *NodeConfig) { c.SuspicionSweeps = n }
}

// WithThreshold sets the Section 5.3 tuning parameter h (0 = untuned).
func WithThreshold(h int) NodeOption {
	return func(c *NodeConfig) { c.Threshold = h }
}

// WithLocalDescent enables the Section 3.2 start-depth rule.
func WithLocalDescent(on bool) NodeOption {
	return func(c *NodeConfig) { c.LocalDescent = on }
}

// WithLeafFlooding enables the Section 6 leaf-flooding extension (0 = off).
func WithLeafFlooding(rate float64) NodeOption {
	return func(c *NodeConfig) { c.LeafFloodRate = rate }
}

// WithParallelism sets the staged engine's worker counts: decode ingress
// workers draining the transport endpoint (each with its own interning wire
// decoder) and encode/send egress workers consuming the protocol stage's
// per-peer send jobs. The protocol stage itself is always exactly one
// goroutine — the single writer of membership, tree views and gossip state.
// (0, 0), the default, collapses all three stages onto that goroutine: the
// serial loop whose seeded runs the deterministic harness replays
// byte-identically. Multicore deployments pass runtime.NumCPU()-sized
// counts; pair decode workers with the UDP transport's DeferDecode so the
// datagram unframing actually lands on them.
func WithParallelism(decode, encode int) NodeOption {
	return func(c *NodeConfig) {
		c.DecodeWorkers = decode
		c.EncodeWorkers = encode
	}
}

// WithStageQueue bounds the queues between engine stages (default 1024),
// exactly. A full ingress queue backpressures into the transport inbox
// (which drops, like a UDP socket buffer); a full egress queue drops the
// send job and counts it in Node.EngineStats — the protocol stage never
// blocks. A bound costs no memory until it is used: a queue holds storage
// for the messages it carries, in 64-slot segments, and one spare segment
// when it is empty.
func WithStageQueue(depth int) NodeOption {
	return func(c *NodeConfig) { c.StageQueue = depth }
}

// WithDeliveryBuffer sizes the Deliveries channel (default 256).
func WithDeliveryBuffer(n int) NodeOption {
	return func(c *NodeConfig) { c.DeliveryBuffer = n }
}

// WithSeed seeds the node RNG (0 derives one from the address).
func WithSeed(seed int64) NodeOption {
	return func(c *NodeConfig) { c.Seed = seed }
}

// WithClock supplies the clock driving the node's timers and failure
// detector (default: the real clock). Injecting a virtual clock
// (NewVirtualClock) makes the runtime deterministic for tests and replayable
// chaos campaigns.
func WithClock(clk Clock) NodeOption {
	return func(c *NodeConfig) { c.Clock = clk }
}
