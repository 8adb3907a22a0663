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
	var buf [stackMemo * stackMemo]int
	f := fold{s: s, score: buf[:], stride: stackMemo}
	f.add(sub)
}

// Merge incorporates every disjunct of the given summaries, in order
// (hierarchical regrouping: a parent line summarizes its child lines). It
// leaves exactly what merging them one call at a time would; one call is one
// fold, whose pair scores closestPair computes once and keeps until a merge
// retires one of the pair.
func (s *Summary) Merge(ts ...*Summary) {
	var buf [stackMemo * stackMemo]int
	f := fold{s: s, score: buf[:], stride: stackMemo}
	for _, t := range ts {
		if t == nil {
			continue
		}
		if t.matchAll {
			s.id = 0
			s.matchAll = true
			s.subs = nil
			continue
		}
		for _, sub := range t.subs {
			f.add(sub)
		}
	}
}

// stackMemo is the number of disjuncts whose pair scores a fold keeps on the
// stack: a summary at the default bound holds one more while it compacts.
// maxMemo is where a fold stops keeping scores at all (a decoded summary
// carries any bound, and any number of disjuncts, from the wire): past it
// every compaction scores its pairs afresh, in no memory of its own.
const (
	stackMemo = DefaultMaxDisjuncts + 1
	maxMemo   = 64
)

// fold is the scratch of one Add or Merge call: the scores closestPair has
// computed, kept in step with s.subs. score[i*stride+j], i < j, is the score
// of the pair (s.subs[i], s.subs[j]) plus one; zero means not yet scored. A
// score is a pure function of the pair, so it stays valid until a merge or
// an absorption removes one of the two, which removes its row and column.
//
// The table is in step only while s.subs fits it. That is all it needs: a
// fold scores nothing before its first compaction, and from then on never
// holds more disjuncts than it did then (it compacts back to the bound after
// every push), so closestPair sizes the table once, by the disjuncts present.
type fold struct {
	s      *Summary
	score  []int // stride×stride; nil past maxMemo disjuncts
	stride int
}

// push appends a disjunct, unscored against every other.
func (f *fold) push(sub Subscription) {
	s := f.s
	s.subs = append(s.subs, sub)
	if n := len(s.subs); n <= f.stride {
		for i := 0; i < n-1; i++ {
			f.score[i*f.stride+n-1] = 0
		}
	}
}

// remove deletes disjunct r with its row and column of scores.
func (f *fold) remove(r int) {
	s := f.s
	n := len(s.subs)
	s.subs = append(s.subs[:r], s.subs[r+1:]...)
	if n > f.stride {
		return // nothing is scored yet
	}
	w := f.stride
	for i := 0; i < n; i++ {
		copy(f.score[i*w+r:i*w+n-1], f.score[i*w+r+1:i*w+n])
	}
	copy(f.score[r*w:(n-1)*w], f.score[(r+1)*w:n*w])
}

// dropSubsumedBy removes every disjunct sub covers, keeping the others in
// order.
func (f *fold) dropSubsumedBy(sub Subscription) {
	for i := 0; i < len(f.s.subs); {
		if sub.Subsumes(f.s.subs[i]) {
			f.remove(i)
		} else {
			i++
		}
	}
}

// add is Add within the fold.
func (f *fold) add(sub Subscription) {
	s := f.s
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
	f.dropSubsumedBy(sub)
	f.push(sub)
	f.compact()
}

// compact merges closest pairs until the bound holds.
func (f *fold) compact() {
	s := f.s
	for len(s.subs) > s.maxSubs {
		i, j := f.closestPair()
		merged := s.subs[i].HullWith(s.subs[j])
		f.remove(j) // j > i
		f.remove(i)
		if merged.IsMatchAll() {
			s.matchAll = true
			s.subs = nil
			return
		}
		// Re-add with absorption (merged may now cover others).
		f.dropSubsumedBy(merged)
		f.push(merged)
	}
}

// closestPair picks the pair whose hull loses the least precision, preferring
// pairs constraining the same attribute sets. Score = number of attributes
// dropped by the hull (widened to wildcard) ×1000 + resulting disjunct size,
// a cheap heuristic that keeps structurally similar interests together; the
// earliest pair (row-major) of least score wins. Only the winning pair's hull
// is materialized, by the caller.
//
// A pair is scored (hullScore) at most once per fold. An unscored pair whose
// lower bound (hullScoreBound) already reaches the best score so far cannot
// win — only a strictly lower score replaces the best — so it is skipped
// unscored, and the pick is the full scan's, tie-breaks included.
func (f *fold) closestPair() (int, int) {
	subs := f.s.subs
	if len(subs) > f.stride {
		f.score, f.stride = nil, 0
		if len(subs) <= maxMemo {
			f.score, f.stride = make([]int, len(subs)*len(subs)), len(subs)
		}
	}
	bestI, bestJ, best := 0, 1, int(^uint(0)>>1)
	for i := 0; i < len(subs); i++ {
		for j := i + 1; j < len(subs); j++ {
			cost := -1
			if f.score != nil {
				cost = f.score[i*f.stride+j] - 1
			}
			if cost < 0 {
				if subs[i].hullScoreBound(subs[j]) >= best {
					continue
				}
				cost = subs[i].hullScore(subs[j])
				if f.score != nil {
					f.score[i*f.stride+j] = cost + 1
				}
			}
			if cost < best {
				bestI, bestJ, best = i, j, cost
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
// creates — promises that one nonzero name never stands for two summaries
// whose disjunct identities differ, in order, or of which one matches all
// and the other not, in one process; equal names then prove two summaries
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

// AppendIdentities appends the identities of the retained subscriptions, in
// accumulation order, to dst: the summary's content as a regrouping input,
// without the copy Disjuncts makes. A match-all summary, like an empty one,
// appends none (IsEmpty tells them apart).
func (s *Summary) AppendIdentities(dst []Identity) []Identity {
	if s == nil {
		return dst
	}
	for _, sub := range s.subs {
		dst = append(dst, sub.Identity())
	}
	return dst
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
