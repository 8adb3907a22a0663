package interest

import (
	"strings"

	"pmcast/internal/event"
)

// DefaultMaxDisjuncts bounds the number of conjunctions a Summary keeps
// before regrouping merges the closest pair. The paper requires regrouping
// to reduce "the complexity of the interests both in terms of memory space
// and in terms of evaluation time" (Section 2.3); the bound is the knob.
const DefaultMaxDisjuncts = 8

// Summary is the regrouped interest of a set of processes: a bounded
// disjunction of subscriptions that over-approximates the union of the
// individual interests. A delegate carries the Summary of its whole subtree
// in the parent view line, so matching a Summary answers "is any process
// down there interested?" with possible false positives but never false
// negatives.
//
// The zero Summary matches nothing (no process below). Summaries are
// mutable accumulators; Clone before sharing.
type Summary struct {
	subs     []Subscription
	maxSubs  int
	matchAll bool
	// id is the name SetIdentity gave this content; Add and Merge drop it.
	id uint64
}

var _ Matcher = (*Summary)(nil)

// NewSummary returns an empty summary with the default disjunct bound.
func NewSummary() *Summary { return NewSummaryWithBound(DefaultMaxDisjuncts) }

// NewSummaryWithBound returns an empty summary keeping at most maxDisjuncts
// conjunctions; values < 1 fall back to the default.
func NewSummaryWithBound(maxDisjuncts int) *Summary {
	if maxDisjuncts < 1 {
		maxDisjuncts = DefaultMaxDisjuncts
	}
	return &Summary{maxSubs: maxDisjuncts}
}

// Add incorporates one subscription, maintaining the size bound through
// subsumption elimination and closest-pair merging.
func (s *Summary) Add(sub Subscription) {
	s.id = 0
	if s.matchAll || sub.IsEmpty() {
		return
	}
	if sub.IsMatchAll() {
		s.matchAll = true
		s.subs = nil
		return
	}
	if s.maxSubs == 0 {
		s.maxSubs = DefaultMaxDisjuncts
	}
	// Absorption: drop the new subscription if an existing one covers it;
	// drop existing ones covered by the new one. Two passes so the early
	// return cannot leave the slice partially filtered.
	for _, old := range s.subs {
		if old.Subsumes(sub) {
			return
		}
	}
	keep := s.subs[:0]
	for _, old := range s.subs {
		if !sub.Subsumes(old) {
			keep = append(keep, old)
		}
	}
	s.subs = append(keep, sub)
	s.compact()
}

// Merge incorporates every disjunct of another summary (hierarchical
// regrouping: a parent line summarizes its child lines).
func (s *Summary) Merge(t *Summary) {
	if t == nil {
		return
	}
	if t.matchAll {
		s.id = 0
		s.matchAll = true
		s.subs = nil
		return
	}
	for _, sub := range t.subs {
		s.Add(sub)
	}
}

// compact merges closest pairs until the bound holds.
func (s *Summary) compact() {
	for len(s.subs) > s.maxSubs {
		i, j := s.closestPair()
		merged := s.subs[i].HullWith(s.subs[j])
		// Remove j then i (j > i), append merged.
		s.subs = append(s.subs[:j], s.subs[j+1:]...)
		s.subs = append(s.subs[:i], s.subs[i+1:]...)
		if merged.IsMatchAll() {
			s.matchAll = true
			s.subs = nil
			return
		}
		// Re-add with absorption (merged may now cover others).
		keep := s.subs[:0]
		for _, old := range s.subs {
			if !merged.Subsumes(old) {
				keep = append(keep, old)
			}
		}
		s.subs = append(keep, merged)
	}
}

// closestPair picks the pair whose hull loses the least precision, preferring
// pairs constraining the same attribute sets. Cost = number of attributes
// dropped by the hull (widened to wildcard) ×1000 + resulting disjunct size,
// a cheap heuristic that keeps structurally similar interests together.
// Scoring is allocation-free (hullCostWith); only the winning pair's hull
// is materialized, by the caller.
func (s *Summary) closestPair() (int, int) {
	bestI, bestJ, bestCost := 0, 1, int(^uint(0)>>1)
	for i := 0; i < len(s.subs); i++ {
		for j := i + 1; j < len(s.subs); j++ {
			dropped, size := s.subs[i].hullCostWith(s.subs[j])
			cost := dropped*1000 + size
			if cost < bestCost {
				bestI, bestJ, bestCost = i, j, cost
			}
		}
	}
	return bestI, bestJ
}

// Matches reports whether any disjunct matches the event. An empty summary
// matches nothing.
func (s *Summary) Matches(ev event.Event) bool {
	return s.MatchesCounted(ev, nil)
}

// MatchesCounted is Matches with work accounting (one Eval for the
// invocation, one Comparison per criterion consulted), mirroring the
// compiled matcher's counters so the two paths' costs compare directly.
func (s *Summary) MatchesCounted(ev event.Event, mc *MatchCounter) bool {
	if s == nil {
		return false
	}
	if mc != nil {
		mc.Evals++
	}
	if s.matchAll {
		return true
	}
	for _, sub := range s.subs {
		if sub.MatchesCounted(ev, mc) {
			return true
		}
	}
	return false
}

// Covers reports whether the summary is guaranteed to match every event the
// subscription matches. Sound but incomplete: it may return false even when
// coverage holds semantically across disjuncts.
func (s *Summary) Covers(sub Subscription) bool {
	if s == nil {
		return false
	}
	if s.matchAll {
		return true
	}
	for _, d := range s.subs {
		if d.Subsumes(sub) {
			return true
		}
	}
	return false
}

// SetIdentity names the summary's present content as a regrouping input.
// The namer — the tree's fold cache, which hash-conses the summaries it
// creates — promises that one nonzero name never stands for two different
// OrderedFingerprints in one process; equal names then prove two summaries
// interchangeable as inputs to a further Merge without comparing them. Like
// a Subscription's Identity the number differs from run to run: it must
// never be encoded, reported or ordered by.
func (s *Summary) SetIdentity(id uint64) { s.id = id }

// Identity returns the name SetIdentity gave the summary's present content;
// 0 for the nil summary and for one never named or changed since.
func (s *Summary) Identity() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// IsEmpty reports whether the summary matches nothing.
func (s *Summary) IsEmpty() bool { return s == nil || (!s.matchAll && len(s.subs) == 0) }

// Len returns the current number of disjuncts (0 for match-all).
func (s *Summary) Len() int {
	if s == nil {
		return 0
	}
	return len(s.subs)
}

// Bound returns the maximum number of disjuncts retained.
func (s *Summary) Bound() int { return s.maxSubs }

// Clone returns an independent copy.
func (s *Summary) Clone() *Summary {
	if s == nil {
		return nil
	}
	out := &Summary{maxSubs: s.maxSubs, matchAll: s.matchAll}
	out.subs = make([]Subscription, len(s.subs))
	for i, sub := range s.subs {
		out.subs[i] = sub.clone()
	}
	return out
}

// Disjuncts returns a copy of the retained subscriptions.
func (s *Summary) Disjuncts() []Subscription {
	if s == nil {
		return nil
	}
	out := make([]Subscription, len(s.subs))
	for i, sub := range s.subs {
		out[i] = sub.clone()
	}
	return out
}

// String renders the summary as disjunct subscriptions separated by " | ".
func (s *Summary) String() string {
	if s.IsEmpty() {
		return "∅"
	}
	if s.matchAll {
		return "*"
	}
	parts := make([]string, len(s.subs))
	for i, sub := range s.subs {
		parts[i] = sub.String()
	}
	return strings.Join(parts, " | ")
}

// Summarize regroups a set of subscriptions into a fresh summary with the
// default bound.
func Summarize(subs ...Subscription) *Summary {
	s := NewSummary()
	for _, sub := range subs {
		s.Add(sub)
	}
	return s
}
