// The in-memory reference fabric: addressable endpoints exchanging opaque
// payloads with configurable message loss, delivery delay and partitions.
//
// It substitutes for the UDP/IP fabric of a real deployment (the paper's
// environment) while preserving the failure modes the protocol is designed
// around: silent loss, delay, and unreachability. Tests inject faults
// deterministically through Network's methods.

package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/clock"
	"pmcast/internal/wire"
)

// LinkModel layers a correlated fault model on top of the i.i.d. Loss knob:
// a per-directed-link Gilbert–Elliott two-state Markov chain (bursty loss)
// plus uniform latency jitter added to the MinDelay/MaxDelay base delay.
//
// The chain starts in the good state and takes one transition step per
// sub-message crossing the link: good→bad with probability PGB, bad→good
// with probability PBG. The message then drops with the current state's loss
// probability (GoodLoss or BadLoss), independently of the ambient Loss draw.
// The stationary loss rate is therefore
//
//	P(bad)·BadLoss + P(good)·GoodLoss, with P(bad) = PGB/(PGB+PBG)
//
// and loss bursts in the classic GoodLoss=0, BadLoss=1 configuration have
// mean length 1/PBG messages. Chain state and all its draws live on the same
// per-link streams as the base faults (repair symbols included, on the link's
// repair stream), so the common-random-numbers property holds: a link's fault
// outcomes depend only on its own traffic.
//
// The zero value disables the model entirely — zero extra RNG draws, so
// every seeded trace pinned before the model existed replays byte-identically.
type LinkModel struct {
	// GoodLoss and BadLoss are the drop probabilities while the chain is in
	// the good and bad state. Both zero with PGB > 0 gives a pure
	// jitter/no-extra-loss chain (legal but pointless).
	GoodLoss, BadLoss float64
	// PGB is the per-message good→bad transition probability; zero disables
	// the chain (GoodLoss/BadLoss must then be zero too).
	PGB float64
	// PBG is the per-message bad→good transition probability; must be
	// positive when PGB is, or the chain could never leave the bad state.
	PBG float64
	// JitterMin and JitterMax bound an extra uniform delay added to every
	// delayed delivery on top of the Config.MinDelay/MaxDelay base draw.
	// Both zero disables jitter.
	JitterMin, JitterMax time.Duration
}

// Enabled reports whether any part of the model is active; the zero value
// reports false.
func (m LinkModel) Enabled() bool {
	return m.PGB > 0 || m.JitterMin > 0 || m.JitterMax > 0
}

// validate rejects configurations that would silently misbehave.
func (m LinkModel) validate() error {
	for _, p := range [...]struct {
		name string
		v    float64
	}{{"GoodLoss", m.GoodLoss}, {"BadLoss", m.BadLoss}, {"PGB", m.PGB}, {"PBG", m.PBG}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("transport: Link.%s %v outside [0, 1]", p.name, p.v)
		}
	}
	if m.PGB > 0 && m.PBG == 0 {
		return fmt.Errorf("transport: Link.PBG must be > 0 when PGB > 0 (the chain could never leave the bad state)")
	}
	if m.PGB == 0 && (m.GoodLoss > 0 || m.BadLoss > 0) {
		return fmt.Errorf("transport: Link.GoodLoss/BadLoss need PGB > 0 to ever apply")
	}
	if m.JitterMin < 0 || m.JitterMax < 0 {
		return fmt.Errorf("transport: negative link jitter bound")
	}
	if m.JitterMin > m.JitterMax {
		return fmt.Errorf("transport: Link.JitterMin %v exceeds JitterMax %v", m.JitterMin, m.JitterMax)
	}
	return nil
}

// Config tunes the in-memory network fabric.
type Config struct {
	// Loss is the probability a message is silently dropped in transit
	// (i.i.d. per sub-message; see Link for correlated loss).
	Loss float64
	// MinDelay and MaxDelay bound the uniform random delivery delay; both
	// zero means synchronous hand-off on the sender's goroutine. NewNetwork
	// rejects MinDelay > MaxDelay; MinDelay == MaxDelay > 0 is a fixed delay.
	MinDelay, MaxDelay time.Duration
	// Link layers bursty (Gilbert–Elliott) loss and latency jitter on the
	// link; the zero value disables it with zero extra RNG draws.
	Link LinkModel
	// QueueLen is each endpoint's inbox capacity in envelopes (default 1024),
	// as a socket buffer counts datagrams; overflow drops the envelope,
	// charged per sub-message. The bound holds storage only while the inbox
	// holds envelopes (a Queue: segments of 64 slots, one spare kept once
	// drained), so an idle endpoint costs no slot whatever its bound.
	QueueLen int
	// Seed seeds the fault RNGs. Every directed link draws loss and delay
	// from its own seed-derived stream — common random numbers, in
	// simulation terms — so fault outcomes depend only on a link's own
	// traffic, not on how traffic to other links is interleaved: a campaign
	// replays at any worker count, and two runs that differ in one protocol
	// knob diverge only where the protocol does. Seed 0 selects its own
	// dedicated stream constant, distinct from every explicit seed, so sweeps
	// that iterate from 0 never duplicate a campaign.
	Seed int64
	// Clock schedules the delayed deliveries of endpoints without an
	// OwnedScheduler (default: the real clock), and Close cancels them; a
	// clock.Virtual makes them deterministic events tests advance by hand.
	Clock clock.Clock
}

// Network is the shared in-memory fabric. Endpoints attach under their
// address; sends route by address. All methods are safe for concurrent use.
//
// A round envelope (wire.Batch) is one datagram: one Send queues at most one
// Envelope on the destination, as on UDP. Faults are per sub-message — each
// part draws its own loss, and what the link lost is gone from the envelope
// that lands; route has the fault model.
type Network struct {
	clk clock.Clock

	// mu is a reader/writer lock: every route runs under the shared read
	// lock, so concurrent senders (the harness runs one goroutine per worker)
	// never serialize on one global mutex. Only knob mutations (Attach/Detach,
	// SetLoss, Block, Heal, Close) take the write lock; they happen while the
	// fleet is quiescent.
	mu        sync.RWMutex
	cfg       Config
	seedMix   uint64 // Seed as stream material; seed 0 gets its own constant
	endpoints map[string]*memEndpoint
	blocked   map[link]bool // directed block rules
	// links keeps one table per source address ever attached, so streams and
	// FIFO floors survive detach/reattach: a rejoined process continues its
	// links' draw sequences exactly where the crashed generation left them.
	links map[string]*linkTable

	// timers holds the deliveries pending on the fabric clock, for Close to
	// cancel; an OwnedScheduler's are its owner's. Its own mutex, not mu: a
	// callback fires on the clock's goroutine while senders hold the read lock.
	timersMu sync.Mutex
	timers   map[clock.Timer]struct{}

	dropped atomic.Int64
	closed  bool
}

// OwnedScheduler is an endpoint clock (see SetEndpointClock): it tells the
// time of the endpoint's sends and learns which process every message sent
// through the endpoint lands on. The harness clock implements it so a
// delayed delivery becomes an event owned (and executed) by the destination,
// and a synchronous one marks the destination as having something to pump.
// A delivery handed to it is its owner's: the fabric neither tracks nor
// cancels it, and one that fires after its destination closed is a counted
// drop. An endpoint without one uses the fabric clock; a fabric without
// endpoint clocks — every live one — pays a nil check.
type OwnedScheduler interface {
	// Now reads the sender's time, from which a delayed delivery is placed.
	Now() time.Time
	// AfterFuncOwned schedules f, d from now, as work of the process at owner.
	AfterFuncOwned(owner addr.Address, d time.Duration, f func())
	// HandedOff reports that a zero-delay send just queued an envelope on
	// owner's inbox.
	HandedOff(owner addr.Address)
}

// defaultSeedStream is the stream-selection constant for Config.Seed == 0.
// It is mixed exactly where an explicit seed would be, chosen so no int64
// seed a sweep is likely to use collides with the default's streams.
const defaultSeedStream = 0x9e3779b97f4a7c15

// linkStream is a tiny deterministic PRNG (splitmix64) dedicated to one
// directed link's fault draws, plus that link's Gilbert–Elliott chain state
// (bad == false is the good state, the chain's start). A fleet crosses
// O(n·fanout) distinct links and math/rand's 607-word lagged-Fibonacci
// seeding was a measurable slice of fleet-scale campaigns; splitmix64 is one
// word of state, free to create, and statistically more than good enough for
// loss and delay draws.
type linkStream struct {
	state uint64
	bad   bool
}

// link names one directed link by its endpoints' keys.
type link struct{ from, to string }

// linkState is one directed link's mutable fabric state: its two fault
// streams (repair symbols draw from their own, see route) and its FIFO floor,
// the latest scheduled delivery instant — a later send on the link never
// lands before an earlier delayed one.
type linkState struct {
	main, repair linkStream
	lastDelayed  time.Time
}

// linkTable holds the links leaving one source address, by destination key.
// Determinism needs each link's draws in its own traffic order, which the
// source's owner provides (its run loop when live, its harness worker in a
// campaign); mu makes draws and floors safe when one source sends from
// several goroutines — a node's egress workers, its only contenders.
type linkTable struct {
	from string
	mu   sync.Mutex
	to   map[string]*linkState
}

// state returns the link's state, seeding its streams on first use from the
// fabric seed and FNV-1a over "from|to" (the repair stream's continues over
// "|fec"): independent but reproducible per link. Callers hold t.mu.
func (t *linkTable) state(seedMix uint64, to string) *linkState {
	st, ok := t.to[to]
	if !ok {
		h := fnv1a(fnvOffset, t.from)
		h = fnv1a((h^'|')*fnvPrime, to)
		st = &linkState{
			main:   linkStream{state: seedMix ^ h},
			repair: linkStream{state: seedMix ^ fnv1a(h, "|fec")},
		}
		t.to[to] = st
	}
	return st
}

const (
	fnvOffset = 1469598103934665603
	fnvPrime  = 1099511628211
)

// fnv1a folds s into a running FNV-1a hash.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func (s *linkStream) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (s *linkStream) Float64() float64 { return float64(s.next()>>11) / (1 << 53) }

// Int63n returns a uniform draw in [0, n); n must be positive. The modulo
// bias (~n/2⁶³) is irrelevant for fault simulation.
func (s *linkStream) Int63n(n int64) int64 { return int64(s.next()>>1) % n }

// NewNetwork builds a fabric with the given configuration. It rejects
// configurations the fault paths would otherwise misread: inverted delay or
// jitter bounds, probabilities outside [0, 1], and chain parameters that
// could never apply (see LinkModel).
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 1024
	}
	if cfg.Loss < 0 || cfg.Loss > 1 {
		return nil, fmt.Errorf("transport: Loss %v outside [0, 1]", cfg.Loss)
	}
	if cfg.MinDelay < 0 || cfg.MaxDelay < 0 {
		return nil, fmt.Errorf("transport: negative delay bound")
	}
	if cfg.MinDelay > cfg.MaxDelay {
		return nil, fmt.Errorf("transport: MinDelay %v exceeds MaxDelay %v", cfg.MinDelay, cfg.MaxDelay)
	}
	if err := cfg.Link.validate(); err != nil {
		return nil, err
	}
	seedMix := uint64(cfg.Seed)
	if cfg.Seed == 0 {
		seedMix = defaultSeedStream
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	return &Network{
		clk:       clk,
		cfg:       cfg,
		seedMix:   seedMix,
		links:     make(map[string]*linkTable),
		endpoints: make(map[string]*memEndpoint),
		blocked:   make(map[link]bool),
		timers:    make(map[clock.Timer]struct{}),
	}, nil
}

// MustNetwork is NewNetwork for callers with static configurations — tests,
// examples, benchmarks — where a config error is a programming bug. It
// panics instead of returning the error.
func MustNetwork(cfg Config) *Network {
	n, err := NewNetwork(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Attach registers an address and returns its endpoint.
func (n *Network) Attach(a addr.Address) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	key := a.Key()
	if _, ok := n.endpoints[key]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateAddr, a)
	}
	links, ok := n.links[key]
	if !ok {
		links = &linkTable{from: key, to: make(map[string]*linkState)}
		n.links[key] = links
	}
	ep := &memEndpoint{
		addr:  a,
		net:   n,
		links: links,
		in:    NewQueue[Envelope](n.cfg.QueueLen),
	}
	n.endpoints[key] = ep
	return ep, nil
}

// Detach unregisters an address; its endpoint stops receiving.
func (n *Network) Detach(a addr.Address) {
	n.mu.Lock()
	ep, ok := n.endpoints[a.Key()]
	if ok {
		delete(n.endpoints, a.Key())
	}
	n.mu.Unlock()
	if ok {
		ep.in.Close()
	}
}

// Close shuts the fabric down: it cancels every delayed delivery pending on
// the fabric clock, so no timer outlives the network, leaves those an
// OwnedScheduler holds to their owner, and detaches every endpoint.
// Subsequent Attach and Send calls fail with ErrClosed.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	endpoints := n.endpoints
	n.endpoints = make(map[string]*memEndpoint)
	n.mu.Unlock()
	n.timersMu.Lock()
	timers := n.timers
	n.timers = make(map[clock.Timer]struct{})
	n.timersMu.Unlock()

	for t := range timers {
		t.Stop()
	}
	for _, ep := range endpoints {
		ep.in.Close()
	}
	return nil
}

// SetLoss changes the loss probability at runtime (fault injection).
func (n *Network) SetLoss(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.Loss = p
}

// Block severs the directed link from → to (partition injection).
func (n *Network) Block(from, to addr.Address) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[link{from.Key(), to.Key()}] = true
}

// BlockBidirectional severs both directions between two addresses.
func (n *Network) BlockBidirectional(a, b addr.Address) {
	n.Block(a, b)
	n.Block(b, a)
}

// Heal removes every block rule.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[link]bool)
}

// Dropped returns the number of sub-messages lost so far (loss, partitions,
// overflow, unknown and detached destinations).
func (n *Network) Dropped() int {
	return int(n.dropped.Load())
}

// Size returns the number of attached endpoints.
func (n *Network) Size() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.endpoints)
}

// parts is how many sub-messages a payload carries — anything but a
// wire.Batch is one part — which is what a drop is charged, on every path.
func parts(payload any) int {
	if b, ok := payload.(wire.Batch); ok {
		return b.Parts()
	}
	return 1
}

// route delivers one payload subject to faults, as one envelope. Each
// sub-message draws its own loss from the link, in the round envelope's
// canonical order; the survivors draw one delay and land together — the
// sender's own wire.Batch value when nothing was lost, a filtered copy
// otherwise (wire.Batch.Surviving), no envelope when nothing is left. Any
// other payload (a bare core.Gossip, which frames as the batch of one it
// is) is one part and arrives as it was sent. Only
// ErrUnknownAddr, which a sender can act on, is returned — faults are silent,
// as on a real network.
//
// Only configured knobs cost anything: partition rules are consulted when
// there are any, link state (under the sender's table mutex) when Loss, the
// link model or a delay needs a draw or the FIFO floor; a fault-free fabric
// looks the destination up and hands over.
func (n *Network) route(e *memEndpoint, to addr.Address, payload any) error {
	from := e.addr
	n.mu.RLock()
	if n.closed {
		n.mu.RUnlock()
		return ErrClosed
	}
	toKey := to.Key()
	dst, known := n.endpoints[toKey]
	if !known || (len(n.blocked) > 0 && n.blocked[link{from.Key(), toKey}]) {
		n.dropped.Add(int64(parts(payload)))
		n.mu.RUnlock()
		if !known {
			return fmt.Errorf("%w: %s", ErrUnknownAddr, to)
		}
		return nil // silent partition
	}
	lossy := n.cfg.Loss > 0 || n.cfg.Link.PGB > 0
	delayed := n.cfg.MaxDelay > 0 || n.cfg.Link.JitterMax > 0
	var st *linkState
	if lossy || delayed {
		e.links.mu.Lock()
		st = e.links.state(n.seedMix, toKey)
	}
	b, isBatch := payload.(wire.Batch)
	left := parts(payload) // sub-messages still in the envelope
	if lossy {
		// Repair symbols are extra traffic a coded run adds to the gossips an
		// uncoded run sends; their own stream keeps the source messages' draws
		// identical to the uncoded run's (common random numbers, extended to
		// the coding layer), so an r>0 campaign diverges from its r=0 twin only
		// where the protocol does.
		lost := 0
		fate := func(repair bool) bool {
			s := &st.main
			if repair {
				s = &st.repair
			}
			if !n.lost(s) {
				return false
			}
			lost++
			return true
		}
		if !isBatch {
			fate(false)
		} else if b = b.Surviving(fate); lost > 0 {
			payload = b // boxed anew only when the envelope changed
		}
		if lost > 0 {
			n.dropped.Add(int64(lost)) // silent loss
			left -= lost
		}
	}
	var delay time.Duration
	if delayed && left > 0 {
		// The delay comes from the main stream exactly when a main-stream
		// part survived, so that stream's consumption stays a pure function
		// of the link's non-repair traffic (see the repair stream above).
		s := &st.main
		if isBatch && left == b.Repairs() {
			s = &st.repair
		}
		delay = n.delay(s)
	}
	if delay > 0 {
		n.schedule(e, st, dst, delay, payload)
	}
	if st != nil {
		e.links.mu.Unlock()
	}
	owned := e.owned
	n.mu.RUnlock()
	if delay == 0 && left > 0 {
		n.deliver(dst, Envelope{From: from, To: to, Payload: payload})
		if owned != nil {
			owned.HandedOff(to)
		}
	}
	return nil
}

// lost draws one sub-message's fate from its link stream: the ambient i.i.d.
// Loss draw composed with one Gilbert–Elliott chain step plus the resulting
// state's loss draw. Disabled knobs consume no draws, which is the replay
// contract: traces pinned before a knob existed stay byte-identical while it
// is off.
func (n *Network) lost(rng *linkStream) bool {
	lost := n.cfg.Loss > 0 && rng.Float64() < n.cfg.Loss
	if lm := n.cfg.Link; lm.PGB > 0 {
		if rng.bad {
			if rng.Float64() < lm.PBG {
				rng.bad = false
			}
		} else if rng.Float64() < lm.PGB {
			rng.bad = true
		}
		p := lm.GoodLoss
		if rng.bad {
			p = lm.BadLoss
		}
		if p > 0 && rng.Float64() < p {
			lost = true
		}
	}
	return lost
}

// delay draws one delivery delay: the uniform MinDelay/MaxDelay base plus
// uniform link jitter. Each bound pair with span zero is a fixed offset
// consuming no draw.
func (n *Network) delay(rng *linkStream) time.Duration {
	var d time.Duration
	if n.cfg.MaxDelay > 0 {
		if span := n.cfg.MaxDelay - n.cfg.MinDelay; span > 0 {
			d = n.cfg.MinDelay + time.Duration(rng.Int63n(int64(span)))
		} else {
			d = n.cfg.MinDelay
		}
	}
	if lm := n.cfg.Link; lm.JitterMax > 0 {
		if span := lm.JitterMax - lm.JitterMin; span > 0 {
			d += lm.JitterMin + time.Duration(rng.Int63n(int64(span)))
		} else {
			d += lm.JitterMin
		}
	}
	return d
}

// schedule places one delayed delivery of the envelope on the link, clamped
// to its FIFO floor. On a virtual clock the callback only runs when time
// advances — in strict (time, scheduling-order) order, which together with
// the clamp is what makes the FIFO guarantee deterministic. The sender's
// OwnedScheduler, when set, reads now and takes the delivery as an event of
// the destination, its owner's alone. Otherwise the fabric clock schedules
// it, tracked under timersMu for Close; the callback takes timersMu first,
// so it cannot observe the map before the timer is tracked.
func (n *Network) schedule(e *memEndpoint, st *linkState, dst *memEndpoint, delay time.Duration, payload any) {
	env := Envelope{From: e.addr, To: dst.addr, Payload: payload}
	if o := e.owned; o != nil {
		o.AfterFuncOwned(dst.addr, st.floor(o.Now(), delay), func() { n.deliver(dst, env) })
		return
	}
	delay = st.floor(n.clk.Now(), delay)
	var timer clock.Timer
	n.timersMu.Lock()
	timer = n.clk.AfterFunc(delay, func() {
		n.timersMu.Lock()
		_, live := n.timers[timer]
		delete(n.timers, timer)
		n.timersMu.Unlock()
		if live {
			n.deliver(dst, env)
		}
	})
	n.timers[timer] = struct{}{}
	n.timersMu.Unlock()
}

// floor returns the delay, drawn at now, clamped so the delivery never lands
// before an earlier delayed one on the same directed link, and moves the
// link's floor to that instant. Callers hold the source's table mutex.
func (st *linkState) floor(now time.Time, delay time.Duration) time.Duration {
	if at := now.Add(delay); !st.lastDelayed.After(at) {
		st.lastDelayed = at
		return delay
	}
	return st.lastDelayed.Sub(now)
}

// deliver queues one envelope on the destination's inbox; a full inbox or a
// closed destination drops it, charged per sub-message like every other drop.
func (n *Network) deliver(dst *memEndpoint, env Envelope) {
	if !dst.in.TryPush(env) {
		n.dropped.Add(int64(parts(env.Payload)))
	}
}

// memEndpoint is one attached process's interface to the in-memory fabric.
type memEndpoint struct {
	addr  addr.Address
	net   *Network
	links *linkTable // this source's link states; the fabric's, see Network.links
	// owned, when set via SetEndpointClock, schedules this endpoint's
	// OUTGOING delayed deliveries in place of the fabric clock. Written under
	// the network write lock, read under the read lock.
	owned OwnedScheduler

	in *Inbox // closed when the endpoint is detached
}

// SetEndpointClock overrides the clock used to read now and schedule delayed
// deliveries for messages SENT by the given address (default: the fabric
// clock). The harness points each endpoint at its node's clock. Unknown
// addresses are ignored.
func (n *Network) SetEndpointClock(a addr.Address, clk OwnedScheduler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[a.Key()]; ok {
		ep.owned = clk
	}
}

// Addr returns the endpoint's address.
func (e *memEndpoint) Addr() addr.Address { return e.addr }

// Send routes a payload to the destination address. Loss and partitions are
// silent; only unknown destinations and a closed endpoint return errors.
func (e *memEndpoint) Send(to addr.Address, payload any) error {
	if e.in.Closed() {
		return ErrClosed
	}
	return e.net.route(e, to, payload)
}

// Inbox returns the endpoint's inbox.
func (e *memEndpoint) Inbox() *Inbox { return e.in }

// Recv returns the inbox's channel view (see Endpoint.Recv).
func (e *memEndpoint) Recv() <-chan Envelope { return e.in.View() }

// RecvMany implements BatchReceiver: it waits for the inbox to hold
// envelopes, then takes up to len(out) of them.
func (e *memEndpoint) RecvMany(out []Envelope) (int, bool) { return e.in.RecvMany(out) }

// Close detaches the endpoint from the network.
func (e *memEndpoint) Close() error {
	e.net.Detach(e.addr)
	return nil
}
