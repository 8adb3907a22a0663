package core

import (
	"math/rand"
	"sort"

	"pmcast/internal/analysis"
	"pmcast/internal/event"
)

// refProcess is the round loop as it stood before the buffers became ordered
// slices, kept as the oracle the built-in-place walk is held to: per-depth
// map buffers sorted into a fresh ID list every round, a per-depth profile
// table dropped whole when the view's generation moves, flat sends regrouped
// through a fresh map, and the seen-set as a plain set of IDs, which holds
// the per-origin windows to the answers they replaced. It borrows a Process —
// whose own buffers and seen-set stay empty — for the configuration, the
// views, the deliveries, the counters and the arithmetic the rewrite did not
// touch (tuning, the destination draw); budgets it computes afresh, unmemoised.
type refProcess struct {
	*Process
	bufs   []map[event.ID]*entry
	caches []refCache
	seen   map[event.ID]struct{}
}

type refCache struct {
	gen      uint64
	profiles map[event.ID]*MatchProfile
}

func newRefProcess(p *Process) *refProcess {
	r := &refProcess{Process: p, bufs: make([]map[event.ID]*entry, p.cfg.D), caches: make([]refCache, p.cfg.D), seen: make(map[event.ID]struct{})}
	for i := range r.bufs {
		r.bufs[i] = make(map[event.ID]*entry)
	}
	return r
}

func (r *refProcess) profileAt(ev event.Event, depth int) *MatchProfile {
	v := r.views[depth-1]
	if v == nil {
		return nil
	}
	c := &r.caches[depth-1]
	if g := v.Generation(); c.profiles == nil || c.gen != g {
		c.profiles, c.gen = make(map[event.ID]*MatchProfile), g
	}
	if prof, ok := c.profiles[ev.ID()]; ok {
		r.matchStats.Hits++
		return prof
	}
	prof := r.compute(v, ev)
	c.profiles[ev.ID()] = prof
	return prof
}

func (r *refProcess) rateAt(ev event.Event, depth int) float64 {
	if prof := r.profileAt(ev, depth); prof != nil {
		return prof.Rate
	}
	return 0
}

// markSeen is Process.markSeen over the reference's own seen-set.
func (r *refProcess) markSeen(ev event.Event) bool {
	if _, dup := r.seen[ev.ID()]; dup {
		return false
	}
	r.seen[ev.ID()] = struct{}{}
	if r.selfMatch(ev) {
		r.deliveries = append(r.deliveries, ev)
	}
	return true
}

func (r *refProcess) HasSeen(id event.ID) bool {
	_, ok := r.seen[id]
	return ok
}

func (r *refProcess) Multicast(ev event.Event) {
	if !r.markSeen(ev) {
		return
	}
	depth := 1
	for r.cfg.LocalDescent && depth < r.cfg.D {
		if prof := r.profileAt(ev, depth); prof != nil {
			if !(prof.Lines == 1 && prof.SelfIn) {
				break
			}
			delete(r.caches[depth-1].profiles, ev.ID())
		}
		depth++
	}
	r.bufs[depth-1][ev.ID()] = &entry{ev: ev, rate: r.rateAt(ev, depth)}
}

func (r *refProcess) Receive(g Gossip) {
	if g.Depth < 1 || g.Depth > r.cfg.D || !r.markSeen(g.Event) {
		return
	}
	r.received++
	r.bufs[g.Depth-1][g.Event.ID()] = &entry{ev: g.Event, rate: g.Rate, round: g.Round}
}

func (r *refProcess) Pending() (n int) {
	for _, buf := range r.bufs {
		n += len(buf)
	}
	return n
}

func (r *refProcess) leave(id event.ID, depth int, demote bool) {
	e := r.bufs[depth-1][id]
	delete(r.bufs[depth-1], id)
	delete(r.caches[depth-1].profiles, id)
	if demote && depth < r.cfg.D {
		r.bufs[depth][id] = &entry{ev: e.ev, rate: r.rateAt(e.ev, depth+1)}
	}
}

func (r *refProcess) Tick(rng *rand.Rand) []Send {
	r.matchStats.Rounds++
	var sends []Send
	send := func(v DepthView, i int, e *entry, depth, round int) {
		r.sent++
		sends = append(sends, Send{To: v.MemberAt(i), Gossip: Gossip{Event: e.ev, Depth: depth, Rate: e.rate, Round: round}})
	}
	for depth := 1; depth <= r.cfg.D; depth++ {
		buf, v := r.bufs[depth-1], r.views[depth-1]
		if len(buf) == 0 {
			continue
		}
		ids := make([]event.ID, 0, len(buf))
		for id := range buf {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			if ids[i].Origin != ids[j].Origin {
				return ids[i].Origin < ids[j].Origin
			}
			return ids[i].Seq < ids[j].Seq
		})
		for _, id := range ids {
			e := buf[id]
			if v == nil {
				r.leave(id, depth, true)
				continue
			}
			size, prof := v.Size(), r.profileAt(e.ev, depth)
			effRate, tuned := r.effectiveRate(prof, e, size)
			budget := r.roundBudget(size, effRate)
			if e.round >= budget {
				r.leave(id, depth, true)
				continue
			}
			if depth == r.cfg.D && r.cfg.LeafFloodRate > 0 && effRate >= r.cfg.LeafFloodRate {
				for i := 0; i < size; i++ {
					if i != v.SelfIndex() && prof.Bit(i) {
						send(v, i, e, depth, budget)
					}
				}
				r.leave(id, depth, false)
				continue
			}
			e.round++
			for _, idx := range sampleIndices(rng, size, v.SelfIndex(), r.cfg.F) {
				if r.susceptibleAt(prof, idx, tuned) {
					send(v, idx, e, depth, e.round)
				}
			}
		}
	}
	return sends
}

func (r *refProcess) TickRound(rng *rand.Rand) []RoundSend { return regroup(r.Tick(rng)) }

// roundBudget is Figure 3 line 7 evaluated afresh every time, which holds
// Process's memo to the formula.
func (r *refProcess) roundBudget(size int, rate float64) int {
	return analysis.PittelLossAdjustedRounds(
		float64(size)*rate, float64(r.cfg.F)*rate, r.cfg.C,
		r.cfg.AssumedLoss, r.cfg.AssumedCrash)
}

// regroup is TickRound's documented contract applied to flat sends: one
// envelope per destination, destinations in order of first appearance,
// per-destination gossip order preserved.
func regroup(flat []Send) []RoundSend {
	var rounds []RoundSend
	slot := make(map[string]int)
	for _, s := range flat {
		i, ok := slot[s.To.Key()]
		if !ok {
			i = len(rounds)
			slot[s.To.Key()] = i
			rounds = append(rounds, RoundSend{To: s.To})
		}
		rounds[i].Gossips = append(rounds[i].Gossips, s.Gossip)
	}
	return rounds
}

// sampleIndices draws k distinct indices uniformly from [0, size) \ {excl}
// via a partial Fisher–Yates over the candidate slice.
func sampleIndices(rng *rand.Rand, size, excl, k int) []int {
	idxs := candidates(nil, size, excl)
	return idxs[:samplePrefix(rng, idxs, k)]
}
