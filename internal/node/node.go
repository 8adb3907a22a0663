// Package node is the asynchronous pmcast runtime: a staged engine binding
// the dissemination algorithm (internal/core), the membership service
// (internal/membership) and a transport endpoint.
//
// A Node periodically executes the gossip task (the paper's "every P
// milliseconds"), periodically exchanges membership digests (gossip pull),
// sweeps its failure detector, and rebuilds its tree views when it next
// reads them after the membership version moved. Events are published with
// Publish and consumed from the Deliveries channel.
//
// The live runtime (Start) is decomposed into three stages — see engine.go:
//
//	ingress   N decode workers draining the endpoint, each owning a wire
//	          decoder (DecodeWorkers)
//	protocol  ONE goroutine handling received envelopes and running the
//	          gossip, membership and failure-detector ticks
//	egress    M encode/send workers consuming per-peer send jobs from the
//	          protocol stage (EncodeWorkers)
//
// Protocol state — membership folds, tree views, the core.Process — has one
// lock, which the protocol stage and Publish both take.
//
// Parallelism 0 collapses every stage onto the protocol goroutine: exactly
// the serial event loop earlier revisions ran, and the configuration the
// deterministic harness drives synchronously through the step-mode API
// (step.go). Determinism is a degenerate configuration of the engine, not a
// second code path.
package node

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/clock"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/fec"
	"pmcast/internal/interest"
	"pmcast/internal/membership"
	"pmcast/internal/transport"
	"pmcast/internal/tree"
	"pmcast/internal/wire"
)

// ErrStopped is reported by a node after Stop, or after its runtime exited.
var ErrStopped = errors.New("node: stopped")

// Config parameterizes a node.
type Config struct {
	// Addr is the node's hierarchical address (its place in the tree).
	Addr addr.Address
	// Space is the shared address space (depth d and arities).
	Space addr.Space
	// R is the redundancy factor.
	R int
	// F is the gossip fanout.
	F int
	// C is Pittel's constant for round budgets (Eq. 3); 0 is accepted and
	// gives the shortest budgets.
	C float64
	// Subscription is the node's initial interest.
	Subscription interest.Subscription
	// GossipInterval is the gossip period P (default 25ms).
	GossipInterval time.Duration
	// MembershipInterval is the digest period (default 4·GossipInterval).
	MembershipInterval time.Duration
	// SuspectAfter configures the failure detector (default 20 membership
	// intervals; ≤ 0 keeps the default — failure detection is integral to
	// the membership scheme).
	SuspectAfter time.Duration
	// DeliveryBuffer sizes the Deliveries channel (default 256). When the
	// consumer lags, further deliveries are dropped and counted.
	DeliveryBuffer int
	// FECRepairs enables the coding layer: every distinct event the node
	// forwards accumulates — per destination subtree, so a generation's
	// sources are events that subtree's members hold — into a generation of
	// FECSources source symbols, and when a generation fills, FECRepairs
	// repair symbols ride the next few round envelopes toward that subtree
	// (see internal/fec). Any FECSources of the
	// FECSources+FECRepairs symbols reconstruct the generation, so a
	// receiver that missed an event on every inbound link rebuilds it from
	// a repair plus the events it already holds.
	// 0 disables coding entirely: the wire format, fault draws and seeded
	// traces are byte-identical to a node without the coding layer.
	FECRepairs int
	// FECSources is the generation size k (default 8 when FECRepairs > 0).
	// FECSources+FECRepairs must not exceed fec.MaxSymbols.
	FECSources int
	// DecodeWorkers is the ingress-stage parallelism of the staged engine:
	// how many decode workers drain the transport endpoint concurrently,
	// each owning its own interning wire.Decoder (intern tables are not
	// shareable across goroutines). 0 — the default — runs ingress inline on
	// the protocol goroutine: the serial loop every deterministic campaign
	// replays. Only Start consults this; step-mode driving is always serial.
	// A byte-oriented transport (UDP) hands every frame over undecoded, so
	// its unframing lands on these workers; multicore deployments size both
	// worker counts by runtime.NumCPU().
	DecodeWorkers int
	// EncodeWorkers is the egress-stage parallelism: how many encode/send
	// workers consume per-peer send jobs from the protocol stage. 0 sends
	// inline on the protocol goroutine.
	EncodeWorkers int
	// StageQueue bounds the queues between engine stages (default 1024),
	// exactly: neither ever holds more. A full ingress queue applies
	// backpressure to the transport, whose inbox overflows by dropping — UDP
	// socket-buffer semantics. A full egress queue drops the send job and
	// counts it in EngineStats: the protocol stage never blocks on a slow
	// fabric. The bound is not paid up front: a queue holds storage for what
	// it carries, in segments of 64 slots (32 bytes each on the protocol
	// queue, 24 on the egress queue, on a 64-bit host), and keeps one spare
	// segment when it is empty.
	StageQueue int
	// Seed seeds the node RNG (0 derives one from the address).
	Seed int64
	// Clock supplies the node's timers and the membership service's notion
	// of "now" (default: the real clock). Injecting a clock.Virtual makes
	// the whole runtime deterministic; see internal/harness, which drives
	// fleets of nodes in step mode on one virtual clock.
	Clock clock.Clock
	// MembershipRoster, when non-nil, bootstraps the membership service
	// on a shared immutable roster (membership.NewWithRoster) instead of a
	// one-line roster of the node's own record (membership.New) — the
	// fleet-bootstrap path where n co-hosted services share one copy of the
	// same records. The roster must contain the node's own line;
	// Subscription should match it. Observable behavior is identical to
	// applying the roster line by line (the golden traces pin this).
	MembershipRoster *membership.Roster
	// DeferViews skips building tree views at construction. The node is
	// NOT usable until WarmViews or AdoptViewsFrom runs; harnesses set it
	// to bootstrap one donor fold and adopt it fleet-wide instead of
	// paying n identical O(n·d) folds.
	DeferViews bool
}

func (c Config) withDefaults() Config {
	if c.GossipInterval <= 0 {
		c.GossipInterval = 25 * time.Millisecond
	}
	if c.MembershipInterval <= 0 {
		c.MembershipInterval = 4 * c.GossipInterval
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 20 * c.MembershipInterval
	}
	if c.DeliveryBuffer <= 0 {
		c.DeliveryBuffer = 256
	}
	if c.StageQueue <= 0 {
		c.StageQueue = 1024
	}
	if c.DecodeWorkers < 0 {
		c.DecodeWorkers = 0
	}
	if c.EncodeWorkers < 0 {
		c.EncodeWorkers = 0
	}
	if c.FECRepairs < 0 {
		c.FECRepairs = 0
	}
	if c.FECRepairs > 0 && c.FECSources <= 0 {
		c.FECSources = 8
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.Seed == 0 {
		h := int64(1469598103934665603)
		for _, b := range []byte(c.Addr.Key()) {
			h = (h ^ int64(b)) * 1099511628211
		}
		c.Seed = h
	}
	return c
}

// Node is one live pmcast process.
type Node struct {
	cfg Config
	ep  transport.Endpoint
	mem *membership.Service
	// dec is the protocol stage's decoder: it unframes transport.Raw
	// payloads on the serial and step-mode paths, and builds the unseen
	// gossip sections of every frame, whoever unframed it.
	dec *wire.Decoder

	// mu is the one lock on the node's protocol state: membership folds, tree
	// views, the core.Process, the RNG, the coding layer and the join contact.
	// Every way into that state takes it — a received envelope, the gossip and
	// membership ticks, Publish, step-mode drivers and the bootstrap tools
	// (WarmViews, AdoptViewsFrom) — and every send happens after it drops.
	mu   sync.Mutex
	rng  *rand.Rand
	proc *core.Process
	// tree is the node's fold ledger as well as its view source: what has
	// been folded in is exactly what the tree holds, so rebuildLocked asks
	// the tree instead of keeping a table beside it. Clones (AdoptViewsFrom)
	// keep co-hosted fleets affordable: the trie is immutable and interned in
	// a store the clones share, so n nodes hold each subtree they agree on
	// once.
	tree             *tree.Tree
	treeVersion      uint64
	deliveriesClosed bool
	joinContact      addr.Address

	// coder is the coding layer (nil when FECRepairs is 0), under mu like the
	// rest of the protocol: tickGossip ticks it and hands it round envelopes,
	// handleRound hands it what arrived.
	coder *fec.Coder

	seq        atomic.Uint64
	deliveries chan event.Event
	dropped    atomic.Int64

	envelopes atomic.Int64 // outgoing envelopes (batched counts as one)
	wireBytes atomic.Int64 // encoded bytes of outgoing envelopes

	// Engine plumbing (engine.go). Start creates protoQ when ingress workers
	// run and egressQ when egress workers do, before the engine goroutines
	// launch; a non-nil egressQ routes emit through the egress stage.
	protoQ        *transport.Queue[transport.Envelope]
	egressQ       *transport.Queue[egressJob]
	wg            sync.WaitGroup
	egressDrops   atomic.Int64
	malformed     atomic.Int64
	egressFlushes atomic.Int64 // SendMany flushes issued by egress workers
	egressFlushed atomic.Int64 // envelopes those flushes carried

	// lifeMu guards life. Start and Stop hold it across their decision and
	// what follows it, so a Stop racing Start either finds the runtime
	// launched and joins it, or leaves it never launched; and a second Stop
	// returns only after the first has closed Deliveries. run never takes it.
	lifeMu sync.Mutex
	life   lifecycle
	stop   chan struct{} // closed by Stop
	done   chan struct{} // closed when the protocol stage exits, or by Stop if it never ran
}

// lifecycle is where a node is in its one pass from New to Stop.
type lifecycle uint8

const (
	lifeNew     lifecycle = iota // inert: step mode, or before Start
	lifeRunning                  // Start launched the engine
	lifeOver                     // Stop ran; the node stays inert
)

// New attaches a node to a transport fabric — any implementation of the
// transport.Transport interface: the in-memory simulation network, the UDP
// backend, or whatever a deployment plugs in. The node is inert until Start.
func New(tr transport.Transport, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	memCfg := membership.Config{
		Self:         cfg.Addr,
		Space:        cfg.Space,
		R:            cfg.R,
		SuspectAfter: cfg.SuspectAfter,
		Now:          cfg.Clock.Now,
	}
	var mem *membership.Service
	var err error
	if cfg.MembershipRoster != nil {
		mem, err = membership.NewWithRoster(memCfg, cfg.MembershipRoster)
	} else {
		mem, err = membership.New(memCfg, cfg.Subscription)
	}
	if err != nil {
		return nil, err
	}
	ep, err := tr.Attach(cfg.Addr)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:        cfg,
		ep:         ep,
		mem:        mem,
		dec:        wire.NewDecoder(),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		deliveries: make(chan event.Event, cfg.DeliveryBuffer),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if cfg.FECRepairs > 0 {
		if cfg.FECSources+cfg.FECRepairs > fec.MaxSymbols {
			ep.Close()
			return nil, fmt.Errorf("node: FEC k+r = %d exceeds %d symbols",
				cfg.FECSources+cfg.FECRepairs, fec.MaxSymbols)
		}
		n.coder = fec.NewCoder(cfg.FECSources, cfg.FECRepairs, cfg.Space.Depth())
	}
	if !cfg.DeferViews {
		if err := n.rebuildLocked(); err != nil {
			ep.Close()
			return nil, err
		}
	}
	return n, nil
}

// Addr returns the node address.
func (n *Node) Addr() addr.Address { return n.cfg.Addr }

// Membership exposes the membership service (read-mostly introspection).
func (n *Node) Membership() *membership.Service { return n.mem }

// Deliveries streams events matching the node's subscription, each exactly
// once. The channel closes on Stop.
func (n *Node) Deliveries() <-chan event.Event { return n.deliveries }

// DroppedDeliveries reports deliveries discarded because the consumer lagged.
func (n *Node) DroppedDeliveries() int64 { return n.dropped.Load() }

// Start launches the staged engine: the protocol goroutine plus — when the
// configuration asks for parallelism — the ingress decode workers and egress
// send workers. Start runs a node once: on a running or ended node it is a
// no-op, and an ended node stays inert.
func (n *Node) Start() {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	if n.life != lifeNew {
		return
	}
	n.life = lifeRunning
	if n.cfg.DecodeWorkers > 0 {
		n.protoQ = transport.NewQueue[transport.Envelope](n.cfg.StageQueue)
	}
	if n.cfg.EncodeWorkers > 0 {
		n.egressQ = transport.NewQueue[egressJob](n.cfg.StageQueue)
	}
	go n.run()
}

// Stop terminates the runtime, detaches from the network and closes the
// delivery channel. It is idempotent and safe in any lifecycle state:
// before Start (the node stays inert and a later Start is a no-op), after
// Start (the engine drains and joins every stage worker), after the
// transport was closed underneath the node, and from multiple goroutines
// at once — each returns once the delivery channel is closed, which happens
// exactly once.
func (n *Node) Stop() {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	if n.life == lifeOver {
		return
	}
	ran := n.life == lifeRunning
	n.life = lifeOver
	close(n.stop)
	if ran {
		<-n.done // protocol stage has exited and closed the egress queue
	} else {
		close(n.done) // never launched: done must still read as terminal
	}
	n.ep.Close() // unblocks ingress workers waiting on the inbox
	n.wg.Wait()  // every stage worker has drained and exited
	// Mark the channel closed under the state lock: every delivery is pushed
	// under the same lock, so none can be mid-send, and any later step call
	// discards into the dropped counter instead of panicking on a closed
	// channel.
	n.mu.Lock()
	n.deliveriesClosed = true
	n.mu.Unlock()
	close(n.deliveries)
}

// Join bootstraps membership through a known contact: the node announces
// itself and lets the contact chain forward the announcement towards its
// immediate neighbors (Section 2.3, "Joining"). The announcement is
// re-sent on the membership period for as long as the node knows nobody,
// so a lossy network cannot strand a joiner.
func (n *Node) Join(contact addr.Address) error {
	n.mu.Lock()
	n.joinContact = contact
	n.mu.Unlock()
	jr := n.mem.BuildJoinRequest()
	return n.send(contact, wire.Batch{Join: &jr})
}

// Leave announces departure to the closest known neighbors and stops the
// node (Section 2.3, "Leaving"). The announcements go around emit: they must
// be on the fabric, not in an egress queue, when Stop runs.
func (n *Node) Leave() {
	leave := n.mem.BuildLeave()
	for _, nb := range n.mem.ImmediateNeighbors() {
		_ = n.send(nb, wire.Batch{Leave: &leave}) // best effort; gossip spreads the tombstone
	}
	n.Stop()
}

// send ships one batch through the endpoint, counting the envelope and its
// encoded wire size (walked, never encoded to be measured).
func (n *Node) send(to addr.Address, b wire.Batch) error {
	var payload any = b
	n.count(payload)
	return n.ep.Send(to, payload)
}

// count charges one outgoing envelope to the wire counters.
func (n *Node) count(payload any) {
	n.envelopes.Add(1)
	n.wireBytes.Add(int64(wire.EncodedSize(payload)))
}

// sendMany flushes one drained egress-queue batch through the endpoint's
// batch seam with the same per-envelope accounting as send, plus the
// flush-amortization counters behind EgressFlushStats.
func (n *Node) sendMany(bs transport.BatchSender, msgs []transport.Outgoing) {
	n.envelopes.Add(int64(len(msgs)))
	var total int64
	for i := range msgs {
		total += int64(wire.EncodedSize(msgs[i].Payload))
	}
	n.wireBytes.Add(total)
	n.egressFlushes.Add(1)
	n.egressFlushed.Add(int64(len(msgs)))
	_ = bs.SendMany(msgs) // per-message loss is silent, exactly like send
}

// WireStats reports the sender-side network cost so far: envelopes emitted
// (a batch counts as one) and their total encoded bytes.
func (n *Node) WireStats() (envelopes, bytes int64) {
	return n.envelopes.Load(), n.wireBytes.Load()
}

// FECStats reports the coding layer's work so far.
func (n *Node) FECStats() fec.Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.coder == nil {
		return fec.Stats{}
	}
	return n.coder.Stats()
}

// MatchStats reports the matching engine's counters — matcher evaluations,
// attribute comparisons, susceptibility-cache traffic, gossip rounds and
// profile-computation time. Counters survive process rebuilds (the rebuilt
// process adopts its predecessor's totals), so they are cumulative for the
// node's lifetime.
func (n *Node) MatchStats() core.MatchStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	var st core.MatchStats
	if n.proc != nil {
		st = n.proc.MatchStats()
	}
	if n.tree != nil {
		fs := n.tree.FoldStats()
		st.FoldRecomputes = fs.Recomputes
		st.FoldHits = fs.Hits
		st.CompilerEntries = uint64(fs.CompilerEntries)
		st.CompilerEvictions = fs.CompilerEvictions
	}
	return st
}

// FoldStats reports the fold layer behind the node's membership trie: this
// tree's regrouping counters plus the occupancy of the (possibly
// clone-shared) store's regroupings and compiled languages. Zero when the
// node has not built a tree yet. Fleet aggregation dedupes the store fields
// by CacheID — co-hosted nodes bootstrapped from one oracle share one store.
func (n *Node) FoldStats() tree.FoldStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.tree == nil {
		return tree.FoldStats{}
	}
	return n.tree.FoldStats()
}

// Subscribe replaces the node's interests; the change propagates through
// membership anti-entropy and re-aggregates up the tree.
func (n *Node) Subscribe(sub interest.Subscription) {
	n.mem.Subscribe(sub)
}

// Publish multicasts an event built from the given attributes. The event ID
// is derived from the node address and a local sequence number. The event
// enters protocol state under the state lock, from the caller's goroutine,
// in every configuration. After Stop, or once the runtime has exited because
// its transport closed underneath it, the node refuses with ErrStopped: the
// event could never leave.
func (n *Node) Publish(attrs map[string]event.Value) (event.ID, error) {
	select {
	case <-n.stop:
		return event.ID{}, ErrStopped
	case <-n.done:
		return event.ID{}, ErrStopped
	default:
	}
	id := event.ID{Origin: n.cfg.Addr.Key(), Seq: n.seq.Add(1)}
	ev := event.New(id, attrs)
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.rebuildIfStaleLocked(); err != nil {
		return event.ID{}, err
	}
	if err := n.proc.Multicast(ev); err != nil {
		return event.ID{}, err
	}
	n.drainDeliveriesLocked()
	return id, nil
}

// decodeRaw unframes a transport.Raw payload in place with the given
// decoder, releasing the pooled frame and counting failures. It reports
// whether the envelope is usable — shared by the ingress workers (worker
// decoders) and the serial/step path (the node's own decoder). A round
// envelope's gossip sections are validated here but built only on the
// protocol stage, and only when the seen-set lacks them
// (handleGossipBatchLocked).
func (n *Node) decodeRaw(dec *wire.Decoder, env *transport.Envelope) bool {
	raw, ok := env.Payload.(transport.Raw)
	if !ok {
		return true
	}
	payload, err := dec.DecodeLazy(raw.Frame)
	raw.Release()
	if err != nil {
		n.malformed.Add(1)
		return false
	}
	env.Payload = payload
	return true
}

// handle dispatches one received payload within the pump that h belongs to.
// It runs on the protocol stage (or a step-mode driver), and takes the state
// lock for the protocol state it touches.
func (n *Node) handle(env transport.Envelope, h *heard) {
	if !n.decodeRaw(n.dec, &env) {
		return
	}
	if from := env.From.Key(); from != h.from {
		if h.at.IsZero() {
			h.at = n.cfg.Clock.Now()
		}
		n.mem.MarkHeardAt(env.From, h.at)
		h.from = from
	}
	switch msg := env.Payload.(type) {
	case wire.Batch:
		n.handleRound(env.From, msg, nil)
	case wire.Round:
		n.handleRound(env.From, msg.Batch, msg.Sections)
	case core.Gossip:
		// The batch of one it encodes to; bench/ still sends gossips bare.
		n.handleRound(env.From, wire.Batch{Gossips: []core.Gossip{msg}}, nil)
	}
}

// handleRound processes one batch in its canonical order: gossips, repairs,
// update, digest, heartbeat (liveness only, recorded by the pump), join,
// leave. Its gossips come typed in b (the in-memory fabric) or as the
// sections of a frame in ss (a byte fabric); the other is empty. A batch of
// membership sections alone never takes the state lock.
func (n *Node) handleRound(from addr.Address, b wire.Batch, ss []wire.Section) {
	if n.coder != nil && len(ss) > 0 {
		// The coder observes every arrival's canonical bytes, duplicates
		// included, so a coding node builds every section.
		b.Gossips = make([]core.Gossip, 0, len(ss))
		for i := range ss {
			if g, ok := n.buildSection(&ss[i]); ok {
				b.Gossips = append(b.Gossips, g)
			}
		}
		ss = nil
	}
	if len(b.Gossips) > 0 || len(ss) > 0 || len(b.FEC) > 0 {
		n.mu.Lock()
		n.handleGossipBatchLocked(b.Gossips, ss)
		if n.coder != nil {
			n.coder.Observe(from, b.Gossips, b.FEC)
		}
		n.mu.Unlock()
	}
	if b.Update != nil {
		n.mem.Apply(*b.Update)
	}
	if b.Digest != nil {
		n.handleDigest(from, *b.Digest)
	}
	if b.Join != nil {
		reply, fwd, forwardIt := n.mem.HandleJoinRequest(*b.Join)
		if len(reply.Records) > 0 { // a refused joiner gets nothing answered or forwarded
			n.emit(b.Join.Joiner.Addr, wire.Batch{Update: &reply})
			if forwardIt && b.Join.Hops > 0 {
				next := *b.Join // the sender may still hold b.Join
				next.Hops--
				n.emit(fwd, wire.Batch{Join: &next})
			}
		}
	}
	// Only the leaver can announce its departure: a third party's Leave would
	// tombstone a live process fleet-wide. Node.Leave sends its own
	// announcement, so an honest one always passes.
	if b.Leave != nil && b.Leave.Addr.Equal(from) {
		n.mem.HandleLeave(*b.Leave)
	}
}

// handleDigest answers one anti-entropy probe with one batch: the update the
// gossiper lacks, our own counter-digest when it knows things we don't, or
// both.
func (n *Node) handleDigest(from addr.Address, d membership.Digest) {
	upd, gossiperFresher := n.mem.HandleDigest(d)
	reply := wire.Batch{Update: upd}
	// Push-pull: when the gossiper knows things we don't, answer with our own
	// digest so it pushes them (see membership.HandleDigest; this is also how
	// a falsely-expelled process re-enters views).
	if gossiperFresher {
		mine := n.mem.MakeDigest()
		reply.Digest = &mine
	}
	if reply.Parts() > 0 {
		n.emit(from, reply)
	}
}

// handleGossipBatchLocked is the one way a gossip enters the protocol: a
// round envelope's gossip section, or the coder's due revivals,
// under one staleness check — the receive-side half of the batched pipeline.
// The gossips come typed (gs) or as scanned sections of a frame (ss), in
// order. A section is built only when the seen-set lacks its ID: at the
// redundancy a reliable epidemic needs, almost every arrival is a duplicate,
// and a duplicate then costs its ID.
func (n *Node) handleGossipBatchLocked(gs []core.Gossip, ss []wire.Section) {
	count := len(gs) + len(ss)
	if count == 0 {
		return
	}
	rebuilt := false
	for i := 0; i < count; i++ {
		var g core.Gossip
		if i < len(gs) {
			if g = gs[i]; n.proc.HasSeen(g.Event.ID()) {
				continue
			}
		} else {
			s := &ss[i-len(gs)]
			if n.proc.HasSeenBytes(s.Origin, s.Seq) {
				continue
			}
			var ok bool
			if g, ok = n.buildSection(s); !ok {
				continue
			}
		}
		if !rebuilt {
			if err := n.rebuildIfStaleLocked(); err != nil {
				return
			}
			rebuilt = true
		}
		n.proc.Receive(g)
	}
	n.drainDeliveriesLocked()
}

// buildSection builds the gossip one scanned section carries. It runs on the
// protocol stage, whose decoder's intern table is its own. The scan already
// validated the body, so building cannot fail on a section DecodeLazy
// returned.
func (n *Node) buildSection(s *wire.Section) (core.Gossip, bool) {
	ev, err := n.dec.Event(s.Body)
	if err != nil {
		return core.Gossip{}, false
	}
	return core.Gossip{Event: ev, Depth: s.Depth, Rate: s.Rate, Round: s.Round}, true
}

// tickGossip runs one gossip period. Under the state lock, in this order:
// the coder ticks and its due revivals re-enter, the round ticks, each round
// envelope is coded, and the coder flushes what waited too long. The
// envelopes are emitted, in that order, after the lock drops: emit either
// hands them to the egress workers or — serially — sends on this goroutine.
func (n *Node) tickGossip() {
	n.mu.Lock()
	if n.coder != nil {
		// Revive before ticking: a recovery whose delay just elapsed enters
		// the gossip buffers now and rides this very round's envelopes.
		n.handleGossipBatchLocked(n.coder.Tick(), nil)
	}
	// The fold waits for its reader: a round reads views only for what it
	// has buffered, and every other reader (a received gossip, Publish,
	// WarmViews) folds first. A round over empty buffers folds nothing.
	if n.proc == nil || n.proc.Pending() > 0 {
		if err := n.rebuildIfStaleLocked(); err != nil {
			n.mu.Unlock()
			return
		}
	}
	// Every gossip this round owes one peer rides a single round envelope.
	jobs := n.proc.TickRound(n.rng)
	n.drainDeliveriesLocked()
	var gens [][]fec.Generation
	var flushed []fec.Flushed
	if n.coder != nil {
		gens = make([][]fec.Generation, len(jobs))
		for i, rs := range jobs {
			gens[i] = n.coder.Code(rs)
		}
		flushed = n.coder.Flush()
	}
	n.mu.Unlock()
	for i, rs := range jobs {
		b := wire.Batch{Gossips: rs.Gossips}
		if gens != nil {
			b.FEC = gens[i]
		}
		n.emit(rs.To, b)
	}
	for _, f := range flushed {
		n.emit(f.To, wire.Batch{FEC: f.Gens})
	}
}

// membershipFanout is how many peers receive each membership digest.
const membershipFanout = 2

func (n *Node) tickMembership() {
	n.mu.Lock()
	contact := n.joinContact
	targets := n.mem.DigestTargets(n.rng, membershipFanout)
	n.mu.Unlock()
	// Bootstrap retry: while the node knows nobody, keep announcing itself
	// to its join contact (join messages are as lossy as any other).
	if n.mem.Len() <= 1 && !contact.IsZero() {
		jr := n.mem.BuildJoinRequest()
		n.emit(contact, wire.Batch{Join: &jr})
	}
	d := n.mem.MakeSummaryDigest()
	// Beacon the whole subgroup: the failure detector deadline is counted in
	// membership intervals, so every immediate neighbor must hear from us at
	// interval granularity regardless of where the digests went.
	hb := membership.Heartbeat{}
	neighbors := n.mem.ImmediateNeighbors()
	// Piggyback: a digest target that is also an immediate neighbor gets one
	// envelope carrying both the probe and the beacon.
	for _, to := range targets {
		probe := wire.Batch{Digest: &d}
		if slices.ContainsFunc(neighbors, to.Equal) {
			probe.Heartbeat = &hb
		}
		n.emit(to, probe)
	}
	for _, nb := range neighbors {
		if !slices.ContainsFunc(targets, nb.Equal) {
			n.emit(nb, wire.Batch{Heartbeat: &hb})
		}
	}
}

// rebuildIfStaleLocked refreshes tree views when membership moved.
func (n *Node) rebuildIfStaleLocked() error {
	if v := n.mem.Version(); v != n.treeVersion {
		return n.rebuildLocked()
	}
	return nil
}

// coreConfig assembles the gossip-core configuration.
func (n *Node) coreConfig() core.Config {
	return core.Config{
		D: n.cfg.Space.Depth(),
		F: n.cfg.F,
		C: n.cfg.C,
	}
}

// rebuildLocked folds membership changes into the node's persistent tree
// incrementally — tree.ApplyDelta recomputes only the affected prefixes —
// and rebuilds the protocol process over the updated views. A full
// tree.Build over n members costs ~O(n·d) and at fleet scale every
// anti-entropy arrival used to pay it; the delta fold makes a churn wave
// cost proportional to the wave, not the fleet. The rebuilt process takes
// over its predecessor's gossip buffers, so in-flight disseminations survive
// membership movement (see DESIGN.md).
func (n *Node) rebuildLocked() error {
	version := n.mem.Version()
	freshFold := n.tree == nil
	if freshFold {
		t, err := tree.New(tree.Config{Space: n.cfg.Space, R: n.cfg.R})
		if err != nil {
			return fmt.Errorf("node: building tree: %w", err)
		}
		n.tree = t
	}
	// The tree is the ledger of what was folded: a record moves it only
	// where the two disagree. A stamp-only bump (e.g. a propagating
	// self-defense resurrection) and a tombstone for a process never folded
	// in therefore fall through.
	var delta tree.Delta
	left := 0 // the records still to fold, where the changelog counted them
	fold := func(r membership.Record) {
		m, present := n.tree.Member(r.Addr)
		switch {
		case r.Alive && !present:
			delta.Add = append(sized(delta.Add, left), tree.Member{Addr: r.Addr, Sub: r.Sub})
		case r.Alive && m.Sub.Identity() != r.Sub.Identity():
			delta.Update = append(sized(delta.Update, left), tree.Member{Addr: r.Addr, Sub: r.Sub})
		case !r.Alive && present:
			delta.Remove = append(sized(delta.Remove, left), r.Addr)
		}
		left--
	}
	// The membership changelog names exactly the lines that moved since the
	// last fold, each once with its current record — the tree does not move
	// until ApplyDelta, so a line folded twice would be two Adds. A fresh
	// fold (first build, or recovery after a failed ApplyDelta dropped the
	// tree) and a changelog that no longer reaches back (overflow) both
	// rescan the whole table instead.
	if recs, ok := n.mem.ChangedSince(n.treeVersion); ok && !freshFold {
		left = len(recs)
		for _, r := range recs {
			fold(r)
		}
	} else {
		n.mem.VisitRecords(fold)
	}
	changed := len(delta.Add)+len(delta.Update)+len(delta.Remove) > 0
	if changed {
		if err := n.tree.ApplyDelta(delta); err != nil {
			// A refused batch left the tree as it was, and the changelog
			// has moved on: drop the tree so the next rebuild folds the
			// whole table from scratch instead of gossiping on a stale one.
			n.tree = nil
			return fmt.Errorf("node: updating tree: %w", err)
		}
	}
	if changed || n.proc == nil {
		// In-flight disseminations survive the swap: the new process takes
		// over the old one's buffers, seen-set and counters, and its compiled
		// own subscription when that did not move.
		proc, err := core.RebuildProcess(n.tree, n.cfg.Addr, n.coreConfig(), n.proc)
		if err != nil {
			return fmt.Errorf("node: rebuilding process: %w", err)
		}
		n.proc = proc
	}
	n.treeVersion = version
	return nil
}

// sized returns list, or for a nil list an empty one with room for the
// records left to fold: each moves at most one list of a delta, so a list
// sized at its first record never grows.
func sized[T any](list []T, left int) []T {
	if list == nil && left > 0 {
		return make([]T, 0, left)
	}
	return list
}

// drainDeliveriesLocked pushes protocol deliveries to the consumer channel.
// Deliveries arriving after Stop closed the channel (a step-mode driver
// poking a dead node) are discarded into the dropped counter.
func (n *Node) drainDeliveriesLocked() {
	for _, ev := range n.proc.Deliveries() {
		if n.deliveriesClosed {
			n.dropped.Add(1)
			continue
		}
		select {
		case n.deliveries <- ev:
		default:
			n.dropped.Add(1)
		}
	}
}

// KnownMembers returns the current alive membership size as seen locally.
func (n *Node) KnownMembers() int { return n.mem.Len() }
