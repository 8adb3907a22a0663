package core

import (
	"slices"
	"time"

	"pmcast/internal/event"
	"pmcast/internal/interest"
)

// This file is the runtime half of the matching engine: per-event
// susceptibility, memoized.
//
// Everything in the Figure 3 loop is an interest-matching query — GETRATE
// when an event enters a depth, "event ⊳ dest" for every gossip
// destination, the Section 3.2 descent test — and a buffered event asks the
// same questions of the same view for every round of its Pittel budget. The
// view cannot change under a live Process (views are snapshots; membership
// movement builds a new Process), so the Process computes each (event,
// depth) profile once — a bitset over the view members plus the handful of
// aggregates the algorithm consumes — and answers every later query with a
// bit test or a stored popcount. The gossip buffer is the cache: an event is
// buffered at one depth at a time, so its entry holds the one profile it
// needs, and the profile leaves with the entry (demoted, flooded or expired)
// without a table to evict from. Invalidation is by view generation: the
// entry stamps its profile with the generation it was computed against,
// generations advance exactly when a tree delta could have changed matching
// (see tree.Tree.GenerationAt) or when the simulator redraws its Bernoulli
// interests, so profiles handed across a rebuild (AdoptState) answer only
// while generations still agree. The cache is therefore semantically
// invisible — every answer is bit-for-bit what the uncached evaluation would
// produce, which is what keeps seeded harness traces byte-identical with
// caching on.

// MatchProfile is the complete susceptibility profile of one event against
// one depth view: who is susceptible (a bitset in member order), how many
// (the popcount GETRATE reduces to), how many distinct subgroups match and
// whether the owner's own subgroup is among them (the Section 3.2 inputs),
// and the matching rate exactly as the uncached path would compute it.
type MatchProfile struct {
	// word is the susceptibility bitset of a view of at most 64 members;
	// wide holds a larger view's, 64 members per word, and is empty
	// otherwise. Most views fit the word, so most profiles allocate nothing
	// for their bits.
	word uint64
	wide []uint64
	// Hits is the number of susceptible members (popcount of the bitset).
	Hits int
	// Lines is the number of distinct matching subgroups (view lines).
	Lines int
	// SelfIn reports whether the owner's own subgroup matches.
	SelfIn bool
	// Rate is GETRATE's value for this (event, view).
	Rate float64
	// Cost is the matcher work spent building the profile.
	Cost interest.MatchCounter
}

// Ensure sizes (and zeroes) the bitset for a view of the given member count.
func (p *MatchProfile) Ensure(size int) {
	p.word = 0
	if size <= 64 {
		p.wide = p.wide[:0]
		return
	}
	words := (size + 63) / 64
	if cap(p.wide) < words {
		p.wide = make([]uint64, words)
		return
	}
	p.wide = p.wide[:words]
	clear(p.wide)
}

// Set marks member i susceptible.
func (p *MatchProfile) Set(i int) {
	if len(p.wide) == 0 {
		p.word |= 1 << uint(i)
		return
	}
	p.wide[i>>6] |= 1 << (uint(i) & 63)
}

// SetRange marks members [lo, hi) susceptible.
func (p *MatchProfile) SetRange(lo, hi int) {
	if len(p.wide) == 0 && lo < hi {
		p.word |= ^uint64(0) >> (64 - (hi - lo)) << lo
		return
	}
	for i := lo; i < hi; i++ {
		p.Set(i)
	}
}

// Bit reports whether member i is susceptible.
func (p *MatchProfile) Bit(i int) bool {
	if len(p.wide) == 0 {
		return p.word>>uint(i)&1 != 0
	}
	return p.wide[i>>6]&(1<<(uint(i)&63)) != 0
}

// MatchStats are the matching engine's counters: matcher evaluations and
// attribute comparisons actually performed, cache traffic, gossip rounds
// ticked, and the wall time spent computing profiles. All deterministic for
// a seeded run except Nanos, which measures real compute time.
type MatchStats struct {
	// Evals counts matcher invocations; Comparisons the per-attribute
	// criterion evaluations inside them. Cache hits add to neither — the
	// gap between Hits and Evals is the work the cache saved.
	Evals       uint64
	Comparisons uint64
	// Hits and Misses count profile lookups served from cache vs computed.
	Hits   uint64
	Misses uint64
	// Rounds counts gossip ticks executed.
	Rounds uint64
	// Nanos is wall time spent computing profiles (cache misses only).
	Nanos int64
	// Fold-layer counters, filled by the membership layer (Node.MatchStats)
	// from its tree: FoldRecomputes counts summary regroupings the tree
	// actually computed, FoldHits the touched nodes served by the tree's
	// shared store. Summed by Accumulate like the matcher counters.
	FoldRecomputes uint64
	FoldHits       uint64
	// Shared-store snapshots: live entries and sweep evictions of the
	// compiled languages in the store behind the tree. A store is typically
	// shared by many processes (tree clones), so Accumulate keeps the max
	// rather than double-counting one store per process; exact fleet totals
	// dedupe by store identity (CacheID) through Node.FoldStats.
	CompilerEntries   uint64
	CompilerEvictions uint64
}

// Accumulate adds another process's counters (fleet-wide reporting).
func (m *MatchStats) Accumulate(o MatchStats) {
	m.Evals += o.Evals
	m.Comparisons += o.Comparisons
	m.Hits += o.Hits
	m.Misses += o.Misses
	m.Rounds += o.Rounds
	m.Nanos += o.Nanos
	m.FoldRecomputes += o.FoldRecomputes
	m.FoldHits += o.FoldHits
	m.CompilerEntries = max(m.CompilerEntries, o.CompilerEntries)
	m.CompilerEvictions = max(m.CompilerEvictions, o.CompilerEvictions)
}

// compute evaluates the event's susceptibility profile against a view: a
// cache miss, the only place matcher work happens.
func (p *Process) compute(v DepthView, ev event.Event) *MatchProfile {
	prof := &MatchProfile{}
	start := time.Now()
	v.Profile(ev, prof)
	p.matchStats.Nanos += time.Since(start).Nanoseconds()
	p.matchStats.Misses++
	p.matchStats.Evals += prof.Cost.Evals
	p.matchStats.Comparisons += prof.Cost.Comparisons
	return prof
}

// profileOf returns a buffered entry's profile against its depth's view,
// computing it on first use (a received gossip arrives without one) and again
// the moment the view's generation stops being the one it was computed
// against, never later — exact invalidation, so caching is invisible to the
// protocol.
func (p *Process) profileOf(e *entry, v DepthView) *MatchProfile {
	if g := v.Generation(); e.prof == nil || e.gen != g {
		e.prof, e.gen = p.compute(v, e.ev), g
	} else {
		p.matchStats.Hits++
	}
	return e.prof
}

// MatchStats reports the matching engine's counters.
func (p *Process) MatchStats() MatchStats { return p.matchStats }

// ProfileFor exposes the susceptibility profile of an event at a depth — the
// matching engine's introspection hook, used by benchmarks and diagnostics.
// An event buffered at that depth answers from its entry, like its next
// round will; any other is evaluated and not kept. Callers observe the same
// single-writer discipline as every other Process method; the returned
// profile may be the buffer's own and must not be mutated.
func (p *Process) ProfileFor(ev event.Event, depth int) *MatchProfile {
	if depth < 1 || depth > p.cfg.D || p.views[depth-1] == nil {
		return nil
	}
	v, buf := p.views[depth-1], p.gossips[depth-1]
	if i, ok := slices.BinarySearchFunc(buf, ev.ID(), compareID); ok {
		return p.profileOf(&buf[i], v)
	}
	return p.compute(v, ev)
}
