// Package sim is the round-synchronous Monte-Carlo simulator reproducing the
// paper's evaluation (Section 5): a fully populated regular tree of n = a^d
// processes runs the pmcast protocol (internal/core) on a single event whose
// audience is drawn Bernoulli(p_d), under i.i.d. message loss ε and crash
// fraction τ, exactly the stochastic model of the paper's analysis
// (Section 4.1).
//
// The simulator drives the same core.Process state machine as the live
// runtime; only the views are synthetic (regular-tree index arithmetic and
// Bernoulli interests instead of content-based subscriptions), which keeps a
// 10 000-process run cheap enough for statistically meaningful sweeps.
//
// The package also runs the paper's Section 1 baselines (baseline.go) and
// aggregates runs (stats.go). The baselines draw their audience, crashes and
// publisher from the simulator's own population model (runState), so every
// arm of a comparison faces the same draw.
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/event"
)

// Errors reported by the simulator.
var (
	ErrBadShape  = errors.New("sim: group shape requires a ≥ R ≥ 1, d ≥ 1 and F ≥ 1")
	ErrBadRate   = errors.New("sim: probability outside valid range")
	ErrNoQuiesce = errors.New("sim: dissemination did not quiesce")
)

// Params configures a simulation campaign. The zero value is invalid; use
// the documented paper configurations, e.g. Figure 4's
// {A: 22, D: 3, R: 3, F: 2}.
type Params struct {
	// A, D, R: regular tree arity, depth and redundancy factor.
	A, D, R int
	// F is the gossip fanout.
	F int
	// C is Pittel's additive constant used in round budgets.
	C float64
	// Eps is the actual message loss probability ε of the network.
	Eps float64
	// Tau is the fraction of processes crashed during a run (τ = f/n).
	Tau float64
	// AssumedEps and AssumedTau are what the protocol assumes when sizing
	// its round budgets (conservative values per Section 3.3); they default
	// to Eps and Tau when negative.
	AssumedEps float64
	AssumedTau float64
	// Threshold is the Section 5.3 tuning parameter h (0 = untuned).
	Threshold int
	// LocalDescent enables the Section 3.2 start-depth optimization.
	LocalDescent bool
	// LeafFloodRate enables the Section 6 leaf-flooding extension (0 = off).
	LeafFloodRate float64
	// MaxRounds bounds a single run (safety net); 0 means 64·d.
	MaxRounds int
}

func (p Params) withDefaults() Params {
	if p.AssumedEps < 0 {
		p.AssumedEps = p.Eps
	}
	if p.AssumedTau < 0 {
		p.AssumedTau = p.Tau
	}
	if p.MaxRounds == 0 {
		p.MaxRounds = 64 * p.D
	}
	return p
}

func (p Params) validate() error {
	if err := checkTree(p.A, p.D, p.R); err != nil {
		return err
	}
	if p.F < 1 {
		return fmt.Errorf("%w: fanout %d", ErrBadShape, p.F)
	}
	return checkRates(0, p.Eps, p.Tau)
}

// checkTree reports a regular tree shape the delegate election cannot fill.
func checkTree(a, d, r int) error {
	if d < 1 || r < 1 || a < r {
		return fmt.Errorf("%w: a=%d d=%d R=%d", ErrBadShape, a, d, r)
	}
	return nil
}

// checkRates reports an audience rate outside [0, 1] or a loss or crash
// probability outside [0, 1).
func checkRates(pd, eps, tau float64) error {
	if pd < 0 || pd > 1 || eps < 0 || eps >= 1 || tau < 0 || tau >= 1 {
		return fmt.Errorf("%w: pd=%g ε=%g τ=%g", ErrBadRate, pd, eps, tau)
	}
	return nil
}

// N returns the population size a^d.
func (p Params) N() int { return pow(p.A, p.D) }

// Result captures one simulated dissemination.
type Result struct {
	// Interested is the drawn audience size.
	Interested int
	// DeliveredInterested counts interested processes that delivered.
	DeliveredInterested int
	// Uninterested is n − Interested.
	Uninterested int
	// InfectedUninterested counts uninterested processes that received the
	// event (pure-forwarding delegates, plus tuning-induced receptions).
	InfectedUninterested int
	// Rounds is the number of gossip periods until the group quiesced.
	Rounds int
	// Messages is the number of gossip sends emitted (including lost ones).
	Messages int
	// MatchEvals and MatchCacheHits count, fleet-wide, the matcher
	// evaluations performed and the susceptibility queries answered from the
	// per-event cache — the simulated run's matching-cost profile, produced
	// by the same compiled-path cache the live runtime uses.
	MatchEvals     uint64
	MatchCacheHits uint64
	// Publisher is the index of the multicasting process.
	Publisher int
}

// DeliveryRate returns DeliveredInterested/Interested (1 when nobody was
// interested: vacuous success).
func (r Result) DeliveryRate() float64 {
	if r.Interested == 0 {
		return 1
	}
	return float64(r.DeliveredInterested) / float64(r.Interested)
}

// UninterestedReceptionRate returns InfectedUninterested/Uninterested.
func (r Result) UninterestedReceptionRate() float64 {
	if r.Uninterested == 0 {
		return 0
	}
	return float64(r.InfectedUninterested) / float64(r.Uninterested)
}

// Aggregate summarizes a batch of runs.
type Aggregate struct {
	// Delivery aggregates per-run delivery rates (Figure 4/6/7 y-axis).
	Delivery Accumulator
	// UninterestedReception aggregates per-run uninterested reception rates
	// (Figure 5 y-axis).
	UninterestedReception Accumulator
	// Rounds and Messages aggregate dissemination cost.
	Rounds   Accumulator
	Messages Accumulator
}

// Add folds one run into the aggregate. This is the one averaging rule for
// every arm of a figure: a run whose audience is empty has no delivery rate,
// so it counts toward every metric but Delivery.
func (a *Aggregate) Add(r Result) {
	if r.Interested > 0 {
		a.Delivery.Add(r.DeliveryRate())
	}
	a.UninterestedReception.Add(r.UninterestedReceptionRate())
	a.Rounds.Add(float64(r.Rounds))
	a.Messages.Add(float64(r.Messages))
}

// Simulator owns the reusable per-configuration state: the process array
// with their synthetic views. A Simulator is not safe for concurrent use;
// run independent Simulators for parallel sweeps.
type Simulator struct {
	params Params
	n      int
	space  addr.Space
	addrs  []addr.Address
	procs  []*core.Process
	run    *runState
}

// New validates the parameters and builds the process population once;
// individual runs then only redraw interests, crashes and the publisher.
func New(params Params) (*Simulator, error) {
	params = params.withDefaults()
	if err := params.validate(); err != nil {
		return nil, err
	}
	space, err := addr.Regular(params.A, params.D)
	if err != nil {
		return nil, err
	}
	n := params.N()
	s := &Simulator{
		params: params,
		n:      n,
		space:  space,
		addrs:  make([]addr.Address, n),
		procs:  make([]*core.Process, n),
		run:    newRunState(params.A, params.D),
	}
	for i := 0; i < n; i++ {
		s.addrs[i] = space.AddressAt(i)
	}
	cfg := core.Config{
		D:             params.D,
		F:             params.F,
		C:             params.C,
		AssumedLoss:   params.AssumedEps,
		AssumedCrash:  params.AssumedTau,
		Threshold:     params.Threshold,
		LocalDescent:  params.LocalDescent,
		LeafFloodRate: params.LeafFloodRate,
	}
	for i := 0; i < n; i++ {
		views := make([]core.DepthView, params.D)
		for depth := 1; depth <= params.D; depth++ {
			views[depth-1] = s.viewFor(i, depth)
		}
		self := i
		proc, err := core.NewProcess(s.addrs[i], cfg, views, func(event.Event) bool {
			return s.run.interested[self]
		})
		if err != nil {
			return nil, err
		}
		s.procs[i] = proc
	}
	return s, nil
}

// Params returns the simulator configuration (with defaults resolved).
func (s *Simulator) Params() Params { return s.params }

// Run simulates one dissemination with audience rate pd, reusing the process
// population. rng drives every stochastic choice, so equal seeds give equal
// runs.
func (s *Simulator) Run(pd float64, rng *rand.Rand) (Result, error) {
	if err := checkRates(pd, s.params.Eps, s.params.Tau); err != nil {
		return Result{}, err
	}
	s.run.redraw(pd, s.params.Tau, rng)
	for _, p := range s.procs {
		p.Reset()
	}

	publisher := s.run.pick(rng)
	ev := event.NewBuilder().Int("sim", 1).Build(event.ID{Origin: "sim", Seq: 1})
	if err := s.procs[publisher].Multicast(ev); err != nil {
		return Result{}, err
	}

	// The active set is kept in deterministic insertion order so a fixed
	// seed reproduces a run exactly (map iteration would not).
	active := make([]int, 0, 256)
	isActive := make([]bool, s.n)
	activate := func(idx int) {
		if !isActive[idx] {
			isActive[idx] = true
			active = append(active, idx)
		}
	}
	activate(publisher)
	rounds, messages := 0, 0
	for len(active) > 0 {
		if rounds >= s.params.MaxRounds {
			return Result{}, fmt.Errorf("%w after %d rounds", ErrNoQuiesce, rounds)
		}
		rounds++
		var sends []core.Send
		for _, idx := range active {
			if s.run.crashed[idx] {
				continue
			}
			sends = append(sends, s.procs[idx].Tick(rng)...)
		}
		messages += len(sends)
		for _, snd := range sends {
			if s.params.Eps > 0 && rng.Float64() < s.params.Eps {
				continue // lost in transit
			}
			dst := s.space.Index(snd.To)
			if s.run.crashed[dst] {
				continue
			}
			s.procs[dst].Receive(snd.Gossip)
			activate(dst)
		}
		// Retire drained and crashed processes.
		next := active[:0]
		for _, idx := range active {
			if !s.run.crashed[idx] && s.procs[idx].Pending() > 0 {
				next = append(next, idx)
			} else {
				isActive[idx] = false
			}
		}
		active = next
	}

	res := Result{Rounds: rounds, Messages: messages}
	for _, p := range s.procs {
		ms := p.MatchStats()
		res.MatchEvals += ms.Evals
		res.MatchCacheHits += ms.Hits
	}
	evID := ev.ID()
	s.run.tally(&res, publisher, func(i int) bool { return s.procs[i].HasSeen(evID) })
	return res, nil
}

// RunMany executes runs independent simulations and aggregates them.
func (s *Simulator) RunMany(pd float64, runs int, seed int64) (Aggregate, error) {
	var agg Aggregate
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < runs; i++ {
		res, err := s.Run(pd, rng)
		if err != nil {
			return Aggregate{}, err
		}
		agg.Add(res)
	}
	return agg, nil
}

func pow(a, k int) int {
	out := 1
	for i := 0; i < k; i++ {
		out *= a
	}
	return out
}

// runState holds one run's random draws over a regular population of a^d
// leaves. The simulator's synthetic views read it, and the baselines draw
// their environment from it: a flat group of n is the depth-1 population of
// arity n.
type runState struct {
	a, d int
	// gen counts redraws: the synthetic views' matching behavior changes
	// wholesale at every redraw, and the generation is what invalidates the
	// processes' per-event susceptibility caches between runs (the same
	// event ID is reused run after run).
	gen uint64
	// interested[i] is the Bernoulli(p_d) audience bit of leaf i.
	interested []bool
	// subInterested[l][s]: subtree s (prefix length l) contains an
	// interested leaf. Level d is interested itself; level 0 the root.
	subInterested [][]bool
	// crashed[i]: process i crashed during this run.
	crashed []bool
	// strides[l] = a^(d−l): leaves covered by a subtree whose prefix has
	// length l.
	strides []int
}

func newRunState(a, d int) *runState {
	rs := &runState{a: a, d: d, subInterested: make([][]bool, d+1), strides: make([]int, d+1)}
	for l := 0; l <= d; l++ {
		rs.strides[l] = pow(a, d-l)
		rs.subInterested[l] = make([]bool, pow(a, l))
	}
	rs.interested = rs.subInterested[d]
	rs.crashed = make([]bool, rs.strides[0])
	return rs
}

// redraw resamples interests and crashes — interest, then crash, per index —
// and rebuilds subtree aggregates.
func (rs *runState) redraw(pd, tau float64, rng *rand.Rand) {
	rs.gen++
	for i := range rs.interested {
		rs.interested[i] = rng.Float64() < pd
		rs.crashed[i] = tau > 0 && rng.Float64() < tau
	}
	for l := rs.d - 1; l >= 0; l-- {
		level := rs.subInterested[l]
		below := rs.subInterested[l+1]
		for sIdx := range level {
			v := false
			base := sIdx * rs.a
			for c := 0; c < rs.a; c++ {
				if below[base+c] {
					v = true
					break
				}
			}
			level[sIdx] = v
		}
	}
}

// pick draws the run's publisher: a uniformly random alive process.
func (rs *runState) pick(rng *rand.Rand) int {
	for {
		if i := rng.Intn(len(rs.crashed)); !rs.crashed[i] {
			return i
		}
	}
}

// tally fills a result's publisher and audience counters; reached reports
// whether process i holds the event.
func (rs *runState) tally(res *Result, publisher int, reached func(int) bool) {
	res.Publisher = publisher
	for i, in := range rs.interested {
		if in {
			res.Interested++
			if reached(i) {
				res.DeliveredInterested++
			}
		} else {
			res.Uninterested++
			if i != publisher && reached(i) {
				res.InfectedUninterested++
			}
		}
	}
}

// simView is the synthetic DepthView of one process at one depth: index
// arithmetic over the regular tree plus the shared runState bits. With the
// smallest-address election, the delegates of any subtree are exactly its R
// lowest leaf indices, so membership reduces to modular arithmetic.
type simView struct {
	sim   *Simulator
	depth int // tree depth i of the view
	group int // prefix index (length depth−1) of the owning process
	perR  int // delegates per line: R at inner depths, 1 at the leaves
	self  int // position of the owner in the view, −1 if not a member
	owner int // owning process index (for the profile's SelfIn)
}

var _ core.DepthView = (*simView)(nil)

// viewFor builds the depth view of process i.
func (s *Simulator) viewFor(i, depth int) *simView {
	p := s.params
	group := i / s.run.strides[depth-1]
	perR := p.R
	if depth == p.D {
		perR = 1
	}
	v := &simView{sim: s, depth: depth, group: group, perR: perR, self: -1, owner: i}
	// The owner is a member iff it is among the R delegates of its child
	// subtree (always, trivially, at depth d).
	childStride := s.run.strides[depth]
	sub := i / childStride // child-subtree index (prefix length depth)
	offset := i - sub*childStride
	if offset < perR {
		c := sub - group*p.A
		v.self = c*perR + offset
	}
	return v
}

// Size implements core.DepthView.
func (v *simView) Size() int { return v.sim.params.A * v.perR }

// MemberAt implements core.DepthView.
func (v *simView) MemberAt(k int) addr.Address {
	return v.sim.addrs[v.memberIndex(k)]
}

// memberIndex maps a view position to a process index.
func (v *simView) memberIndex(k int) int {
	c, j := k/v.perR, k%v.perR
	sub := v.group*v.sim.params.A + c
	return sub*v.sim.run.strides[v.depth] + j
}

// SelfIndex implements core.DepthView.
func (v *simView) SelfIndex() int { return v.self }

// Generation implements core.DepthView: the shared run state's redraw
// counter, so per-event profiles cached during one run never leak into the
// next (the simulator reuses one event ID across runs).
func (v *simView) Generation() uint64 { return v.sim.run.gen }

// Profile implements core.DepthView: one pass over the A subgroup bits — a
// line is susceptible iff the subtree it stands for contains an interested
// leaf — each synthetic "summary" consulted once and expanded to the line's
// perR members. The rate (GETRATE) is matching lines over A, which equals
// susceptible members over group size since every line contributes perR
// delegates.
func (v *simView) Profile(_ event.Event, p *core.MatchProfile) {
	a := v.sim.params.A
	p.Ensure(a * v.perR)
	base := v.group * a
	level := v.sim.run.subInterested[v.depth]
	ownSub := v.owner / v.sim.run.strides[v.depth]
	hits, lines, selfIn := 0, 0, false
	for c := 0; c < a; c++ {
		if !level[base+c] {
			continue
		}
		lines++
		if base+c == ownSub {
			selfIn = true
		}
		p.SetRange(c*v.perR, (c+1)*v.perR)
		hits += v.perR
	}
	p.Hits, p.Lines, p.SelfIn = hits, lines, selfIn
	p.Rate = float64(lines) / float64(a)
	p.Cost.Evals += uint64(a)
	p.Cost.Comparisons += uint64(a)
}
