// Package core implements the pmcast dissemination algorithm of the paper's
// Figure 3: depth-wise gossiping of events along the delegate tree, with
// per-depth gossip buffers whose life-time is bounded by Pittel's round
// estimate conditioned on the matching rate, plus the Section 5.3 tuning for
// small matching rates and the Section 3.2 local-interest descent rule.
//
// The Process type is a pure protocol state machine: it consumes ticks and
// received gossips and emits sends and deliveries. Both the round-synchronous
// Monte-Carlo simulator (internal/sim) and the asynchronous goroutine runtime
// (internal/node) drive it, so simulation results exercise exactly the code
// that runs in the live system.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"pmcast/internal/addr"
	"pmcast/internal/analysis"
	"pmcast/internal/event"
)

// Common errors.
var (
	ErrNoViews   = errors.New("core: process needs one view per depth")
	ErrBadFanout = errors.New("core: fanout must be ≥ 1")
	ErrNilEvent  = errors.New("core: event has zero ID")
)

// DepthView is the process's table for one tree depth: the members of its
// depth-i group in deterministic line order, and the one question the
// algorithm asks of it per event — the susceptibility profile (the aggregated
// subtree interest each member represents at this depth). Implementations:
// the tree adapter (adapter.go) for live nodes, and the simulator's synthetic
// views.
type DepthView interface {
	// Size returns the number of group members (|view[i]|·R at inner depths,
	// the subgroup population at depth d).
	Size() int
	// MemberAt returns the address of the i-th member, 0 ≤ i < Size().
	MemberAt(i int) addr.Address
	// SelfIndex returns the position of the owning process in the view, or
	// −1 when the process is not a member of this depth's group (it still
	// gossips here while PMCAST-ing).
	SelfIndex() int
	// Profile fills p with the event's whole susceptibility profile: which
	// members should receive it ("event ⊳ dest", Figure 3 line 13), GETRATE's
	// value, and the Section 3.2 descent inputs.
	Profile(ev event.Event, p *MatchProfile)
	// Generation names what Profile answers from: profiles cached under one
	// generation stay valid while the view reports it. The tree adapter
	// carries the tree node's generation, so cached profiles survive a
	// rebuild that did not move the view; the simulator advances it when it
	// redraws interests; a view that never changes may return a constant.
	Generation() uint64
}

// Config parameterizes the algorithm.
type Config struct {
	// D is the tree depth; the process keeps D gossip buffers.
	D int
	// F is the gossip fanout (targets chosen per event per round).
	F int
	// C is the additive constant of Pittel's round estimate (Eq. 3);
	// conservative values trade extra rounds for reliability.
	C float64
	// AssumedLoss and AssumedCrash are the environmental parameters ε and τ
	// the process assumes when bounding gossip rounds (Eq. 11). They
	// lengthen budgets; they do not affect who is gossiped to.
	AssumedLoss  float64
	AssumedCrash float64
	// Threshold is the Section 5.3 tuning parameter h: when fewer than h
	// members of a view are susceptible, the first h members are treated as
	// susceptible in addition to the effectively interested ones beyond the
	// first h. Zero disables tuning (the paper's "original" algorithm).
	Threshold int
	// LocalDescent enables the Section 3.2 rule: a PMCAST skips depths
	// where the publisher's own subtree is the only interested one.
	LocalDescent bool
	// LeafFloodRate enables the Section 6 extension "flooding the leaf
	// subgroups if there is a high density of interests": at the leaf depth,
	// when the matching rate is at least this value, the event is sent once
	// to every susceptible neighbor instead of being gossiped for T rounds.
	// Zero disables flooding. Flooded gossips carry an exhausted round
	// counter so receivers do not re-flood.
	LeafFloodRate float64
}

func (c Config) validate() error {
	if c.D < 1 {
		return fmt.Errorf("%w: depth %d", ErrNoViews, c.D)
	}
	if c.F < 1 {
		return fmt.Errorf("%w: got %d", ErrBadFanout, c.F)
	}
	return nil
}

// Gossip is the message of Figure 3's SEND/RECEIVE: the event, the depth at
// which it is currently multicast, the matching rate computed for that depth,
// and the round counter bounding its remaining life-time.
type Gossip struct {
	Event event.Event
	Depth int
	Rate  float64
	Round int
}

// Send instructs the driver to deliver a gossip to a destination process.
type Send struct {
	To     addr.Address
	Gossip Gossip
}

// RoundSend is one per-peer round envelope: every gossip this round owes a
// single destination, in emission order. The batched runtime ships each
// RoundSend as one wire frame instead of len(Gossips) separate envelopes.
type RoundSend struct {
	To      addr.Address
	Gossips []Gossip
}

// entry is one buffered gossip: (event, rate, round) of Figure 3, plus the
// event's susceptibility profile at the depth it is buffered at, stamped with
// the view generation it was computed against (matchcache.go).
type entry struct {
	ev    event.Event
	rate  float64
	round int
	prof  *MatchProfile // nil until first asked for
	gen   uint64
}

// Process is the pmcast protocol state of a single process.
type Process struct {
	self  addr.Address
	cfg   Config
	views []DepthView // views[i−1] is the depth-i view
	// selfMatch is the delivery predicate (HPDELIVER): for a tree member the
	// member's own line of its depth-d view (RebuildProcess), which answers
	// exactly what its subscription matches.
	selfMatch func(event.Event) bool
	budget    budgetMemo

	// The view-independent state, behind one pointer so that a rebuild over
	// new views takes it over whole (AdoptState).
	*state
}

// state is everything a Process keeps that does not depend on its views.
type state struct {
	// gossips[i−1] is the depth-i buffer, ordered by event ID at rest: a round
	// walks it front to back, so seeded runs are reproducible without sorting.
	// An ID sits in at most one depth's buffer — the seen-set guards every
	// way in — so nothing ever looks an entry up by ID.
	gossips [][]entry
	seen    seenSet

	matchStats MatchStats

	deliveries []event.Event
	received   int // gossips accepted (first receptions)
	sent       int // gossip messages emitted

	// Round scratch, kept across rounds for its capacity and emptied before a
	// round returns, so an idle process pins no event: the picks the walk
	// emitted in order, the Fisher–Yates candidate indices of one draw, and
	// TickRound's grouping tables (destination key → slot, each pick's slot,
	// each slot's gossip count).
	picks  []Send
	idxs   []int
	slot   map[string]int
	slotOf []int
	counts []int
}

// NewProcess builds a process from its per-depth views and its own interest
// predicate (used for HPDELIVER). views[i] is the depth-(i+1) view; a nil
// view is allowed for depths where the process has no populated group, it
// then forwards without gossiping at that depth.
func NewProcess(self addr.Address, cfg Config, views []DepthView, selfMatch func(event.Event) bool) (*Process, error) {
	p, err := newShell(self, cfg, views, selfMatch)
	if err != nil {
		return nil, err
	}
	p.state = newState(cfg.D)
	return p, nil
}

// newShell is NewProcess without the state: for a caller that installs one
// (NewProcess a fresh one, RebuildProcess the predecessor's).
func newShell(self addr.Address, cfg Config, views []DepthView, selfMatch func(event.Event) bool) (*Process, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(views) != cfg.D {
		return nil, fmt.Errorf("%w: got %d views for depth %d", ErrNoViews, len(views), cfg.D)
	}
	if selfMatch == nil {
		selfMatch = func(event.Event) bool { return false }
	}
	vs := make([]DepthView, len(views))
	copy(vs, views)
	return &Process{self: self, cfg: cfg, views: vs, selfMatch: selfMatch}, nil
}

// newState returns the empty state of a depth-d process.
func newState(d int) *state {
	return &state{
		gossips: make([][]entry, d),
		slot:    make(map[string]int),
	}
}

// Multicast implements PMCAST (Figure 3 line 24): the event enters the
// process's root-depth buffer with the locally computed matching rate and a
// fresh round counter. With LocalDescent enabled, depths where only the
// publisher's own subtree is interested are skipped immediately
// (Section 3.2). The publisher delivers to itself when interested.
func (p *Process) Multicast(ev event.Event) error {
	if ev.ID().IsZero() {
		return ErrNilEvent
	}
	if !p.markSeen(ev) {
		return nil
	}

	depth := 1
	var prof *MatchProfile
	if p.cfg.LocalDescent {
		for ; depth < p.cfg.D; depth++ {
			v := p.views[depth-1]
			if v == nil {
				continue
			}
			// A skipped depth never buffers the event, so its probe is dropped;
			// the depth that keeps it takes the probe's profile along.
			if prof = p.compute(v, ev); !(prof.Lines == 1 && prof.SelfIn) {
				break
			}
			prof = nil
		}
	}
	p.place(ev, depth, prof)
	return nil
}

// Receive implements RECEIVE (Figure 3 line 19). The first reception buffers
// the gossip at the depth it arrived for and delivers the event when it
// matches the process's own interests. Duplicates are dropped against the
// retained seen-set, which outlives the buffers and every process rebuild
// (DESIGN.md "The event and the seen-set").
func (p *Process) Receive(g Gossip) {
	if g.Depth < 1 || g.Depth > p.cfg.D || !p.markSeen(g.Event) {
		return
	}
	p.received++
	p.insert(g.Depth, entry{ev: g.Event, rate: g.Rate, round: g.Round})
}

// markSeen enters ev in the seen-set and delivers it when the process's own
// interest matches; it reports false, and does nothing, when ev was seen
// before.
func (p *Process) markSeen(ev event.Event) bool {
	if !p.seen.add(ev.ID()) {
		return false
	}
	if p.selfMatch(ev) {
		p.deliveries = append(p.deliveries, ev)
	}
	return true
}

// compareID orders a buffered entry against an event ID: by origin, then by
// sequence number.
func compareID(e entry, id event.ID) int {
	if c := cmp.Compare(e.ev.ID().Origin, id.Origin); c != 0 {
		return c
	}
	return cmp.Compare(e.ev.ID().Seq, id.Seq)
}

// insert files e into the depth's buffer at its ID's place. The callers hold
// the seen-set, so the ID is in no buffer yet; a publisher's stream arrives
// in ID order and appends.
func (p *Process) insert(depth int, e entry) {
	buf, id := p.gossips[depth-1], e.ev.ID()
	i := len(buf)
	if i > 0 && compareID(buf[i-1], id) > 0 {
		i, _ = slices.BinarySearchFunc(buf, id, compareID)
	}
	p.gossips[depth-1] = slices.Insert(buf, i, e)
}

// place buffers ev at depth with a fresh round counter and GETRATE(depth,
// event) computed here (PMCAST and demotion, Figure 3 lines 17 and 25) — read
// off prof when the caller already profiled the event against this depth's
// view, which counts as the profile's first cache hit.
func (p *Process) place(ev event.Event, depth int, prof *MatchProfile) {
	e := entry{ev: ev}
	if v := p.views[depth-1]; v != nil {
		if prof != nil {
			p.matchStats.Hits++
		} else {
			prof = p.compute(v, ev)
		}
		e.prof, e.gen, e.rate = prof, v.Generation(), prof.Rate
	}
	p.insert(depth, e)
}

// round executes one gossip period (Figure 3 task GOSSIP) and leaves what it
// emitted in p.picks: for every buffered event at every depth, either gossip
// to F random view members (susceptible ones actually receive a message) or,
// when the Pittel budget is exhausted, hand the event down to the next depth
// with a freshly computed rate. Each buffer is walked once, in ID order, and
// compacted in place as entries leave; an entry demoted from depth i lands in
// depth i+1's buffer before that one is walked, so it is gossiped there in the
// same round.
func (p *Process) round(rng *rand.Rand) {
	p.matchStats.Rounds++
	for depth := 1; depth <= p.cfg.D; depth++ {
		buf := p.gossips[depth-1]
		if len(buf) == 0 {
			continue
		}
		v := p.views[depth-1]
		kept := 0
		for i := range buf {
			if p.gossipEntry(&buf[i], depth, v, rng) {
				if kept != i {
					buf[kept] = buf[i]
				}
				kept++
			}
		}
		clear(buf[kept:]) // the departed entries' events and profiles
		p.gossips[depth-1] = buf[:kept]
	}
}

// gossipEntry is one buffered event's turn in a round; it reports whether the
// entry stays in this depth's buffer.
func (p *Process) gossipEntry(e *entry, depth int, v DepthView, rng *rand.Rand) bool {
	if v == nil {
		p.demote(e, depth)
		return false
	}
	size := v.Size()
	prof := p.profileOf(e, v)
	effRate, tunedSus := p.effectiveRate(prof, e, size)
	budget := p.roundBudget(size, effRate)
	if e.round >= budget {
		p.demote(e, depth)
		return false
	}
	if depth == p.cfg.D && p.cfg.LeafFloodRate > 0 && effRate >= p.cfg.LeafFloodRate {
		p.floodLeaf(v, prof, e, size, budget)
		return false // flooding replaces the leaf gossip rounds
	}
	e.round++
	p.gossipOnce(v, prof, e, depth, size, tunedSus, rng)
	return true
}

// Tick executes one gossip period and returns the emitted sends flat, in
// emission order, to be delivered by the driver; rng supplies the destination
// choices. The simulator's form of a round; the runtime takes TickRound's.
func (p *Process) Tick(rng *rand.Rand) []Send {
	p.round(rng)
	if len(p.picks) == 0 {
		return nil
	}
	sends := slices.Clone(p.picks)
	p.dropPicks()
	return sends
}

// TickRound executes one gossip period exactly like Tick — the same walk,
// the same RNG consumption — but groups the emitted sends by destination
// into per-peer round envelopes, in order of each destination's first
// appearance and preserving per-destination gossip order. Grouping is the
// whole batching contract: the sub-messages a peer receives, and their
// relative order, are identical to the unbatched flat sends. The returned
// round envelopes are also the engine's send-job handoff: the protocol
// stage owns this call, and each RoundSend becomes one job for whoever
// encodes and sends — the egress workers in a parallel configuration, the
// protocol goroutine itself in the serial one. They read the gossips after
// this call returned, so the envelopes and the one array behind all their
// Gossips are fresh every round and the process keeps no reference to them.
func (p *Process) TickRound(rng *rand.Rand) []RoundSend {
	p.round(rng)
	if len(p.picks) == 0 {
		return nil
	}
	// Count each destination's gossips, then carve the one backing array into
	// per-destination sub-slices, each capped at its own count so that an
	// append to one envelope reallocates instead of running into the next.
	slotOf, counts := p.slotOf[:0], p.counts[:0]
	for i := range p.picks {
		key := p.picks[i].To.Key()
		s, ok := p.slot[key]
		if !ok {
			s = len(counts)
			p.slot[key] = s
			counts = append(counts, 0)
		}
		counts[s]++
		slotOf = append(slotOf, s)
	}
	rounds := make([]RoundSend, len(counts))
	backing := make([]Gossip, len(p.picks))
	lo := 0
	for s, c := range counts {
		rounds[s].Gossips = backing[lo : lo : lo+c]
		lo += c
	}
	for i := range p.picks {
		rs := &rounds[slotOf[i]]
		if len(rs.Gossips) == 0 {
			rs.To = p.picks[i].To
		}
		rs.Gossips = append(rs.Gossips, p.picks[i].Gossip)
	}
	clear(p.slot)
	p.slotOf, p.counts = slotOf, counts
	p.dropPicks()
	return rounds
}

// dropPicks empties the round's emission scratch, releasing its events.
func (p *Process) dropPicks() {
	clear(p.picks)
	p.picks = p.picks[:0]
}

// effectiveRate applies the Section 5.3 tuning: when the susceptible count
// sits below the threshold h, the first h view members count as susceptible
// too. It returns the effective rate and whether tuning is active. The
// susceptibility reads are bit tests against the event's cached profile.
func (p *Process) effectiveRate(prof *MatchProfile, e *entry, size int) (float64, bool) {
	if size == 0 {
		return 0, false
	}
	h := p.cfg.Threshold
	if h <= 0 {
		return e.rate, false
	}
	hits := int(math.Round(e.rate * float64(size)))
	if hits >= h {
		return e.rate, false
	}
	if h > size {
		h = size
	}
	// First h members plus the effectively interested ones beyond them.
	extra := 0
	for i := h; i < size; i++ {
		if prof.Bit(i) {
			extra++
		}
	}
	return float64(h+extra) / float64(size), true
}

// roundBudget evaluates Figure 3 line 7: T(size·rate, F·rate), loss-adjusted
// per Eq. 11 by the assumed ε and τ. Every other input is fixed per process,
// and a round walks a depth's buffer with one view size and, mostly, one
// rate, so the last answer is kept: two logarithms per depth, not per entry.
func (p *Process) roundBudget(size int, rate float64) int {
	key := budgetMemo{size: size, rate: math.Float64bits(rate)}
	if key.size == p.budget.size && key.rate == p.budget.rate {
		return p.budget.rounds
	}
	key.rounds = analysis.PittelLossAdjustedRounds(
		float64(size)*rate, float64(p.cfg.F)*rate, p.cfg.C,
		p.cfg.AssumedLoss, p.cfg.AssumedCrash)
	p.budget = key
	return key.rounds
}

// budgetMemo is roundBudget's last answer. Its zero value is a true one: a
// group of size 0 gets 0 rounds whatever the rate and the configuration.
type budgetMemo struct {
	size   int
	rate   uint64 // math.Float64bits of the rate
	rounds int
}

// gossipOnce emits one round's sends for a buffered event: to the
// susceptible ones — the event's profile answers — among F distinct
// destinations drawn at random from the view's members but the process
// itself.
func (p *Process) gossipOnce(v DepthView, prof *MatchProfile, e *entry, depth, size int, tuned bool, rng *rand.Rand) {
	p.idxs = candidates(p.idxs[:0], size, v.SelfIndex())
	for _, idx := range p.idxs[:samplePrefix(rng, p.idxs, p.cfg.F)] {
		if p.susceptibleAt(prof, idx, tuned) {
			p.emit(v.MemberAt(idx), e, depth, e.round)
		}
	}
}

// emit records one send of a buffered event in the round's picks.
func (p *Process) emit(to addr.Address, e *entry, depth, round int) {
	p.sent++
	p.picks = append(p.picks, Send{To: to, Gossip: Gossip{Event: e.ev, Depth: depth, Rate: e.rate, Round: round}})
}

// susceptibleAt answers one view slot's susceptibility: the cached profile
// bit, widened by the Section 5.3 first-h rule when tuning is active.
func (p *Process) susceptibleAt(prof *MatchProfile, idx int, tuned bool) bool {
	if prof.Bit(idx) {
		return true
	}
	return tuned && idx < p.cfg.Threshold
}

// floodLeaf sends the event once to every susceptible leaf neighbor (the
// Section 6 dense-interest extension). The carried round counter equals the
// receiver's budget, so receivers treat the event as exhausted and do not
// flood again.
func (p *Process) floodLeaf(v DepthView, prof *MatchProfile, e *entry, size, budget int) {
	selfIdx := v.SelfIndex()
	for i := 0; i < size; i++ {
		if i != selfIdx && prof.Bit(i) {
			p.emit(v.MemberAt(i), e, p.cfg.D, budget)
		}
	}
}

// demote implements Figure 3 lines 16–18 for an entry the round walk is
// dropping from this depth: above the leaves it re-enters one depth deeper
// with a fresh rate and a zeroed round counter. Its profile here goes with
// its slot.
func (p *Process) demote(e *entry, depth int) {
	if depth < p.cfg.D {
		p.place(e.ev, depth+1, nil)
	}
}

// candidates appends the candidate indices [0, size) \ {excl} to dst.
func candidates(dst []int, size, excl int) []int {
	for i := 0; i < size; i++ {
		if i != excl {
			dst = append(dst, i)
		}
	}
	return dst
}

// samplePrefix shuffles a uniformly-sampled k elements of idxs (clamped to
// the slice) to its front by a partial Fisher–Yates walk, and returns the
// prefix length.
func samplePrefix(rng *rand.Rand, idxs []int, k int) int {
	k = min(k, len(idxs))
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(idxs)-i)
		idxs[i], idxs[j] = idxs[j], idxs[i]
	}
	return k
}

// AdoptState hands the gossip buffers with the profiles their entries hold,
// the seen-set, pending deliveries, counters and round scratch of a
// predecessor over to p, a process freshly built over the predecessor's moved
// views; old must not be used afterwards. Without it every membership change
// wipes all in-flight disseminations fleet-wide — under churn that turns
// steady version movement into mass delivery failure (the chaos harness
// measures exactly this). Buffered entries keep their carried rate and round,
// as a received gossip would; a profile whose view generation moved is
// recomputed at its entry's next turn (profileOf).
func (p *Process) AdoptState(old *Process) {
	if old == nil || len(old.gossips) != p.cfg.D {
		return
	}
	p.state = old.state
}

// Deliveries drains the events delivered (HPDELIVER) since the last call.
func (p *Process) Deliveries() []event.Event {
	out := p.deliveries
	p.deliveries = nil
	return out
}

// HasSeen reports whether the process ever received or multicast the event.
func (p *Process) HasSeen(id event.ID) bool { return p.seen.has(id) }

// HasSeenBytes is HasSeen for an ID read off a frame and not yet built: the
// origin's bytes and the sequence number. It does not allocate, so a receiver
// pays for building an event only when the event is new.
func (p *Process) HasSeenBytes(origin []byte, seq uint64) bool {
	return p.seen.hasBytes(origin, seq)
}

// SeenOccupancy reports what the seen-set keeps for one origin: the words of
// its sequence-number bitmap (at most 64) and the 64-number chunks held
// beyond it. Both are 0 for an origin never seen.
func (p *Process) SeenOccupancy(origin string) (words, far int) {
	if w := p.seen.window(origin, false); w != nil {
		return len(w.words), len(w.far)
	}
	return 0, 0
}

// Pending returns the number of events currently buffered across all depths;
// a dissemination has quiesced when every process reports 0.
func (p *Process) Pending() int {
	n := 0
	for _, buf := range p.gossips {
		n += len(buf)
	}
	return n
}

// Reset clears all protocol state (buffers, seen-set, deliveries, counters)
// so the process can be reused across simulation runs without rebuilding
// views.
func (p *Process) Reset() {
	for i, buf := range p.gossips {
		clear(buf)
		p.gossips[i] = buf[:0]
	}
	p.matchStats = MatchStats{}
	p.seen.reset()
	p.deliveries = nil
	p.received = 0
	p.sent = 0
}
