package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pmcast/internal/event"
	"pmcast/internal/interest"
)

// The generators below turn (workload spec, seed) into the program's inputs:
// per-node subscriptions, a flux schedule and an event schedule. The program
// under test receives only these values. The Zipf model has the shape of
// harness.ZipfWorkload — ranked topics with q_k ∝ 1/k^alpha, truncated-Pareto
// topic counts, subtree-rotated popularity for the Locality share of draws,
// inverted ranking on odd waves — but lives here so the benchmark owns its
// inputs.

// topicSet is one node's interests: a bitset over topic ranks.
type topicSet []uint64

func newTopicSet(topics int) topicSet { return make(topicSet, (topics+63)/64) }

func (s topicSet) has(rank int) bool { return s[rank>>6]&(1<<(uint(rank)&63)) != 0 }
func (s topicSet) add(rank int)      { s[rank>>6] |= 1 << (uint(rank) & 63) }

func (s topicSet) ranks() []int {
	var out []int
	for r := 0; r < len(s)*64; r++ {
		if s.has(r) {
			out = append(out, r)
		}
	}
	return out
}

func topicName(rank int) string { return fmt.Sprintf("t%05d", rank) }

// subscription renders a topic set as the OneOf criterion nodes subscribe
// with; a nil set is the match-all subscription.
func (s topicSet) subscription() interest.Subscription {
	if s == nil {
		return interest.NewSubscription()
	}
	ranks := s.ranks()
	names := make([]string, len(ranks))
	for i, r := range ranks {
		names[i] = topicName(r)
	}
	return interest.NewSubscription().Where("topic", interest.OneOf(names...))
}

type zipfGen struct {
	spec  zipfSpec
	arity int
	cum   []float64
}

func newZipfGen(spec zipfSpec, arity int) *zipfGen {
	g := &zipfGen{spec: spec, arity: arity, cum: make([]float64, spec.Topics)}
	total := 0.0
	for k := range g.cum {
		total += 1 / math.Pow(float64(k+1), spec.Alpha)
		g.cum[k] = total
	}
	for k := range g.cum {
		g.cum[k] /= total
	}
	return g
}

func (g *zipfGen) rankFor(u float64) int {
	r := sort.SearchFloat64s(g.cum, u)
	if r >= len(g.cum) {
		r = len(g.cum) - 1
	}
	return r
}

// count is the truncated-Pareto (beta = 1.5, mean about MeanSubs) topic
// count at quantile u.
func (g *zipfGen) count(u float64) int {
	xm := g.spec.MeanSubs / 3
	if xm < 1 {
		xm = 1
	}
	c := int(xm * math.Pow(1-u, -1/1.5))
	if c < 1 {
		c = 1
	}
	if g.spec.MaxSubs > 0 && c > g.spec.MaxSubs {
		c = g.spec.MaxSubs
	}
	if c > g.spec.Topics {
		c = g.spec.Topics
	}
	return c
}

// draw picks count distinct topics for a node in top-level subtree group:
// Zipf-weighted sampling without replacement, the subtree's rotated ranking
// for the Locality share of draws, the whole ranking inverted when asked.
func (g *zipfGen) draw(rng *rand.Rand, count, group int, inverted bool) topicSet {
	set := newTopicSet(g.spec.Topics)
	have := 0
	add := func(rank int) {
		if !set.has(rank) {
			set.add(rank)
			have++
		}
	}
	rotate := func(rank int) int {
		if g.arity <= 1 {
			return rank
		}
		return (rank + group*(g.spec.Topics/g.arity)) % g.spec.Topics
	}
	for tries := 0; have < count && tries < 4*count+16; tries++ {
		rank := g.rankFor(rng.Float64())
		if rng.Float64() < g.spec.Locality {
			rank = rotate(rank)
		}
		if inverted {
			rank = g.spec.Topics - 1 - rank
		}
		add(rank)
	}
	for rank := 0; have < count && rank < g.spec.Topics; rank++ {
		add(rotate(rank))
	}
	return set
}

// fluxOp is one scheduled Subscribe: at offset At from the start of the
// first timed phase, node Node replaces its topic set with Set.
type fluxOp struct {
	At   int64 // ns
	Node int
	Set  topicSet
}

// eventSpec is one event of the schedule. Open-loop phases give it a due
// time; closed-loop phases take events in order as the window allows.
type eventSpec struct {
	Due       int64 // ns from the start of its phase (open loop only)
	Publisher int
	Topic     int // rank; -1 on match-all fleets
	Filler    []int64
}

// inputs is everything a live workload feeds the fleet.
type inputs struct {
	Subs   []topicSet // nil entries: match-all
	Counts []int      // per-node topic count (flux redraws keep it)
	Flux   []fluxOp   // sorted by At; empty without flux
	Warmup []eventSpec
	Phases [][]eventSpec // per phase: the open-loop schedule, or the closed-loop pool
	SHA    string
}

// generate builds the inputs of one live workload for one seed. fluxSpan is
// how long the flux schedule must run (warm-up, timed phases, drains).
//
// The population — every node's topic count, its topic set, and the sets its
// redraws will install — is drawn from the fixed population seed, not from the
// run's seed. Who is interested in what, and above all which interests sit
// on the delegate addresses that hear every event first, decides how heavy
// the workload is and how its latency modes are weighted; redrawing it per
// seed made every metric swing 10–30 % with the luck of the draw. The run's
// seed draws what is published — publishers, topics, filler, in schedule
// order — and seeds the nodes' and the fabric's own randomness.
func generate(cfg *config, w *workloadSpec, seed int64, phaseDur []float64, fluxSpan float64) *inputs {
	nodes := cfg.nodes(w)
	rng := rand.New(rand.NewSource(seed*0x9e3779b9 + 0x5bd1e995))
	pop := rand.New(rand.NewSource(cfg.PopulationSeed))
	in := &inputs{Subs: make([]topicSet, nodes), Counts: make([]int, nodes)}

	var zg *zipfGen
	if w.Subscriptions == "zipf" {
		zg = newZipfGen(w.Zipf, w.Arity)
		group := func(i int) int { return i / (nodes / w.Arity) } // the address's first digit
		// order is both the stratification of topic counts and the flux
		// round-robin.
		order := pop.Perm(nodes)
		inverted := make([]bool, nodes)
		for pos, j := range order {
			// Stratified quantiles: position pos of n takes (pos+0.5)/n.
			in.Counts[j] = zg.count((float64(pos) + 0.5) / float64(nodes))
			// With flux, half the fleet starts on the inverted ranking and
			// every redraw flips its node, so the share of inverted nodes —
			// and with it the audience of a head-topic event — is
			// stationary from the first second instead of drifting as
			// successive waves sweep the fleet.
			inverted[j] = w.FluxPerS > 0 && pos%2 == 1
		}
		for j := 0; j < nodes; j++ {
			in.Subs[j] = zg.draw(pop, in.Counts[j], group(j), inverted[j])
		}
		if w.FluxPerS > 0 {
			period := 1e9 / w.FluxPerS
			for k := 0; float64(k)*period < fluxSpan*1e9; k++ {
				j := order[k%nodes]
				inverted[j] = !inverted[j]
				in.Flux = append(in.Flux, fluxOp{
					At:   int64(float64(k+1) * period),
					Node: j,
					Set:  zg.draw(pop, in.Counts[j], group(j), inverted[j]),
				})
			}
		}
	}

	mk := func(due int64) eventSpec {
		e := eventSpec{Due: due, Publisher: rng.Intn(nodes), Topic: -1}
		if zg != nil {
			e.Topic = zg.rankFor(rng.Float64())
		}
		e.Filler = make([]int64, w.FillerAttrs)
		for j := range e.Filler {
			e.Filler[j] = rng.Int63n(1000)
		}
		return e
	}
	openLoop := func(rate, secs float64) []eventSpec {
		n := int(rate * secs)
		evs := make([]eventSpec, n)
		for i := range evs {
			evs[i] = mk(int64(float64(i) * 1e9 / rate))
		}
		return evs
	}
	in.Warmup = openLoop(w.nominalRate(), cfg.WarmupS)
	for pi, p := range w.Phases {
		switch {
		case p.RateEPS > 0:
			in.Phases = append(in.Phases, openLoop(p.RateEPS, phaseDur[pi]))
		case p.Window > 0:
			// The closed loop cycles through this pool in order.
			pool := make([]eventSpec, 4096)
			for i := range pool {
				pool[i] = mk(0)
			}
			in.Phases = append(in.Phases, pool)
		default:
			in.Phases = append(in.Phases, nil)
		}
	}
	in.SHA = in.hash()
	return in
}

// hash fingerprints the generated subscriptions, flux schedule and event
// schedule: two runs printing the same workload_sha got the same inputs.
func (in *inputs) hash() string {
	h := sha256.New()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	putSet := func(s topicSet) {
		put(int64(len(s)))
		for _, w := range s {
			put(int64(w))
		}
	}
	for _, s := range in.Subs {
		putSet(s)
	}
	for _, op := range in.Flux {
		put(op.At, int64(op.Node))
		putSet(op.Set)
	}
	hashEvents(put, in.Warmup)
	for _, evs := range in.Phases {
		hashEvents(put, evs)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func hashEvents(put func(...int64), evs []eventSpec) {
	put(int64(len(evs)))
	for _, e := range evs {
		put(e.Due, int64(e.Publisher), int64(e.Topic))
		put(e.Filler...)
	}
}

// fillerNames are the filler attribute names, shared by every event so the
// wire decoder's intern table sees a fixed vocabulary.
var fillerNames = []string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"}

// attrs renders an event for Publish: its global sequence number, its due
// time on the benchmark clock, and the scheduled content.
func (e *eventSpec) attrs(seq int, dueNs int64) map[string]event.Value {
	m := make(map[string]event.Value, 3+len(e.Filler))
	m["n"] = event.Int(int64(seq))
	m["due"] = event.Int(dueNs)
	if e.Topic >= 0 {
		m["topic"] = event.Str(topicName(e.Topic))
	}
	for j, v := range e.Filler {
		m[fillerNames[j]] = event.Int(v)
	}
	return m
}
