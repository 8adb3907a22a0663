package core

import (
	"math/bits"
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
// bit test or a stored popcount. Invalidation is by view generation:
// profiles are keyed by (event ID, generation), generations advance exactly
// when a tree delta could have changed matching (see tree.Tree.Generation)
// or when the simulator redraws its Bernoulli interests, so profiles handed
// across a rebuild (AdoptState) answer only while generations still agree. The
// cache is therefore semantically invisible — every answer is bit-for-bit
// what the uncached evaluation would produce, which is what keeps seeded
// harness traces byte-identical with caching on.

// MatchProfile is the complete susceptibility profile of one event against
// one depth view: who is susceptible (a bitset in member order), how many
// (the popcount GETRATE reduces to), how many distinct subgroups match and
// whether the owner's own subgroup is among them (the Section 3.2 inputs),
// and the matching rate exactly as the uncached path would compute it.
type MatchProfile struct {
	// Bits is the susceptibility bitset over view members, 64 per word.
	Bits []uint64
	// Hits is the number of susceptible members (popcount of Bits).
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
	words := (size + 63) / 64
	if cap(p.Bits) < words {
		p.Bits = make([]uint64, words)
		return
	}
	p.Bits = p.Bits[:words]
	for i := range p.Bits {
		p.Bits[i] = 0
	}
}

// Set marks member i susceptible.
func (p *MatchProfile) Set(i int) { p.Bits[i>>6] |= 1 << (uint(i) & 63) }

// SetRange marks members [lo, hi) susceptible.
func (p *MatchProfile) SetRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		p.Set(i)
	}
}

// Bit reports whether member i is susceptible.
func (p *MatchProfile) Bit(i int) bool {
	return p.Bits[i>>6]&(1<<(uint(i)&63)) != 0
}

// Popcount returns the number of set bits.
func (p *MatchProfile) Popcount() int {
	n := 0
	for _, w := range p.Bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// depthCache memoizes profiles for one depth, keyed by event ID and guarded
// by the view generation the entries were computed against.
type depthCache struct {
	gen      uint64
	profiles map[event.ID]*MatchProfile
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
	// regroupings (FoldCacheEntries/Evictions) and compiled languages
	// (CompilerEntries/Evictions) in the store behind the tree. A store is
	// typically shared by many processes (tree clones), so Accumulate keeps
	// the max rather than double-counting one store per process; exact fleet
	// totals dedupe by store identity (CacheID) through Node.FoldStats.
	FoldCacheEntries   uint64
	FoldCacheEvictions uint64
	CompilerEntries    uint64
	CompilerEvictions  uint64
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
	m.FoldCacheEntries = max(m.FoldCacheEntries, o.FoldCacheEntries)
	m.FoldCacheEvictions = max(m.FoldCacheEvictions, o.FoldCacheEvictions)
	m.CompilerEntries = max(m.CompilerEntries, o.CompilerEntries)
	m.CompilerEvictions = max(m.CompilerEvictions, o.CompilerEvictions)
}

// profileAt returns the event's susceptibility profile at the given depth,
// computing and caching it on first use. Returns nil for depths without a
// view. The generation check clears a depth's cache the moment its view
// stops matching the cached answers, never later — exact invalidation, so
// caching is invisible to the protocol.
func (p *Process) profileAt(ev event.Event, depth int) *MatchProfile {
	v := p.views[depth-1]
	if v == nil {
		return nil
	}
	c := &p.caches[depth-1]
	if g := v.Generation(); c.profiles == nil || c.gen != g {
		c.profiles = make(map[event.ID]*MatchProfile)
		c.gen = g
	}
	if prof, ok := c.profiles[ev.ID()]; ok {
		p.matchStats.Hits++
		return prof
	}
	prof := &MatchProfile{}
	start := time.Now()
	v.Profile(ev, prof)
	p.matchStats.Nanos += time.Since(start).Nanoseconds()
	p.matchStats.Misses++
	p.matchStats.Evals += prof.Cost.Evals
	p.matchStats.Comparisons += prof.Cost.Comparisons
	c.profiles[ev.ID()] = prof
	return prof
}

// evictProfile drops one event's cached profile at one depth (the event
// left that depth's buffer: demoted, flooded or expired).
func (p *Process) evictProfile(id event.ID, depth int) {
	if c := &p.caches[depth-1]; c.profiles != nil {
		delete(c.profiles, id)
	}
}

// MatchStats reports the matching engine's counters.
func (p *Process) MatchStats() MatchStats { return p.matchStats }

// ProfileFor exposes the (possibly cached) susceptibility profile of an
// event at a depth — the matching engine's introspection hook, used by
// benchmarks and diagnostics. Callers observe the same single-writer
// discipline as every other Process method; the returned profile is shared
// with the cache and must not be mutated.
func (p *Process) ProfileFor(ev event.Event, depth int) *MatchProfile {
	if depth < 1 || depth > p.cfg.D {
		return nil
	}
	return p.profileAt(ev, depth)
}
