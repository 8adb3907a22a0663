package interest

import (
	"slices"
	"strings"

	"pmcast/internal/event"
)

// This file is the read side of the matching engine: the Summaries regrouping
// works on — interpretive, merge-walked — are indexed for evaluation. One
// Index covers the lines of a whole view and answers an event for every line
// in one walk of its attributes: the counting algorithm of content-based
// publish/subscribe (Fabret et al., SIGMOD 2001), attribute-major where the
// summaries are conjunction-major. A CompiledMatcher is a handle on one line
// of an Index; Compile and CompileSummary build one-line indexes for tests
// and tools.
//
// The interpretive Matches implementations on Subscription and Summary stay
// exactly as they were: they are the oracle the property and fuzz tests
// hold the index to.

// MatchCounter tallies the work of matcher evaluations: Evals counts
// languages answered — one per distinct non-nil line of an index probe, one
// per interpretive Summary.MatchesCounted call — and Comparisons the
// attribute work inside them. Its unit differs by path: an index counts
// attribute probes (one indexed attribute consulted for one block of 64
// disjuncts, however many of them constrain it), the interpretive path one
// per criterion evaluated. Counters are plain fields; callers own any
// synchronization.
type MatchCounter struct {
	Evals       uint64
	Comparisons uint64
}

// Index is the attribute-major matcher of a set of lines. Every disjunct of
// every line is one bit, 64 to a block; a line's disjuncts hold consecutive
// bits, and lines of one language share one run of them. Per block, and per
// attribute some disjunct of the block constrains, the index keeps the
// disjuncts that leave the attribute free and, per value domain, those a
// value satisfies. A probe starts from all of a block's bits and ANDs in,
// attribute by attribute in name order, the free bits plus those the event's
// value satisfies (only the free ones where the event lacks the attribute),
// stopping once nothing survives; a line matches when any of its bits does.
// The answers are exactly Summary.Matches: the zero Value satisfies nothing,
// kinds never cross, and an empty string set or interval set is
// unsatisfiable. An Index is immutable and safe for concurrent use.
type Index struct {
	blocks  []indexBlock
	lines   []indexLine
	handles []CompiledMatcher
	// langs is the number of distinct non-nil lines: the Evals of a probe.
	langs uint64
}

// indexLine locates one line: its disjuncts' bits [lo, hi), or a constant —
// all for a match-all summary, and no bits at all (never) for a nil or empty
// one.
type indexLine struct {
	lo, hi int32
	all    bool
}

// indexBlock indexes 64 disjunct bits: bits holds those in use, attrs the
// attributes any of them constrains, sorted by name.
type indexBlock struct {
	bits  uint64
	attrs []indexAttr
}

// indexAttr is one attribute's part of a block. A disjunct's bit is in free
// when the disjunct does not constrain the attribute; otherwise it is in the
// set of the criterion's domain — anyv for the wildcard, strs under each
// admitted string, nums beside its interval set, t or f for a boolean — or,
// for an unsatisfiable criterion, nowhere.
type indexAttr struct {
	name       string
	free, anyv uint64
	t, f       uint64
	strs       map[string]uint64
	nums       []numBits
}

// numBits is a numeric criterion and the disjuncts holding it.
type numBits struct {
	set  IntervalSet
	bits uint64
}

// satisfied returns the disjuncts whose criterion on the attribute admits v.
func (a *indexAttr) satisfied(v event.Value) uint64 {
	switch v.Kind() {
	case event.KindInt, event.KindFloat:
		x, _ := v.Numeric()
		s := a.anyv
		for i := range a.nums {
			if a.nums[i].set.Contains(x) {
				s |= a.nums[i].bits
			}
		}
		return s
	case event.KindString:
		s, _ := v.AsString()
		return a.anyv | a.strs[s]
	case event.KindBool:
		if b, _ := v.AsBool(); b {
			return a.anyv | a.t
		}
		return a.anyv | a.f
	default:
		return 0 // the zero Value
	}
}

// probe returns the bits of mask whose disjuncts the event satisfies. An
// attribute that constrains none of the bits still in the running is not
// consulted.
func (b *indexBlock) probe(ev event.Event, mask uint64, mc *MatchCounter) uint64 {
	n, j := ev.Len(), 0
	for i := range b.attrs {
		a := &b.attrs[i]
		if mask&^a.free == 0 {
			continue
		}
		if mc != nil {
			mc.Comparisons++
		}
		keep := a.free
		for ; j < n; j++ {
			name, v := ev.AttrAt(j)
			if name >= a.name {
				if name == a.name {
					keep |= a.satisfied(v)
				}
				break
			}
		}
		if mask &= keep; mask == 0 {
			return 0
		}
	}
	return mask
}

// NewIndex indexes lines: line i matches exactly what sums[i] does, and a nil
// summary matches nothing. Lines whose langs entries are equal and nonzero
// name one language — their summaries must accept the same events — and
// share bits; a nil langs gives every line its own.
func NewIndex(sums []*Summary, langs []uint64) *Index {
	x := &Index{lines: make([]indexLine, len(sums)), handles: make([]CompiledMatcher, len(sums))}
	var b indexBuilder
	for i, s := range sums {
		x.handles[i] = CompiledMatcher{x: x, line: i}
		if s == nil {
			continue
		}
		if langs != nil && langs[i] != 0 {
			if j := slices.Index(langs[:i], langs[i]); j >= 0 {
				x.lines[i] = x.lines[j]
				continue
			}
		}
		x.langs++
		if s.matchAll {
			x.lines[i].all = true
			continue
		}
		lo := b.n
		for _, sub := range s.subs {
			b.add(sub)
		}
		x.lines[i] = indexLine{lo: lo, hi: b.n}
	}
	x.blocks = b.finish()
	return x
}

// indexBuilder lays disjuncts out bit by bit. While it builds, an attribute's
// free field holds the bits that constrain it; finish inverts it.
type indexBuilder struct {
	blocks []indexBlock
	n      int32
}

// add gives sub the next bit.
func (b *indexBuilder) add(sub Subscription) {
	w, bit := int(b.n>>6), uint64(1)<<(b.n&63)
	if w == len(b.blocks) {
		b.blocks = append(b.blocks, indexBlock{})
	}
	blk := &b.blocks[w]
	blk.bits |= bit
	for _, ac := range sub.criteria {
		k, found := slices.BinarySearchFunc(blk.attrs, ac.attr, func(a indexAttr, name string) int {
			return strings.Compare(a.name, name)
		})
		if !found {
			blk.attrs = slices.Insert(blk.attrs, k, indexAttr{name: ac.attr})
		}
		a := &blk.attrs[k]
		a.free |= bit
		switch c := ac.crit; c.kind {
		case kindAny:
			a.anyv |= bit
		case kindNumeric:
			a.addNumeric(c.nums, bit)
		case kindString:
			for _, s := range c.strs {
				if a.strs == nil {
					a.strs = make(map[string]uint64, len(c.strs))
				}
				a.strs[s] |= bit
			}
		case kindBool:
			if c.b {
				a.t |= bit
			} else {
				a.f |= bit
			}
		}
	}
	b.n++
}

// addNumeric records a numeric criterion, beside an equal one already held.
func (a *indexAttr) addNumeric(set IntervalSet, bit uint64) {
	if set.IsEmpty() {
		return
	}
	for i := range a.nums {
		if a.nums[i].set.Equal(set) {
			a.nums[i].bits |= bit
			return
		}
	}
	a.nums = append(a.nums, numBits{set: set, bits: bit})
}

// finish turns each attribute's constraining bits into its free ones.
func (b *indexBuilder) finish() []indexBlock {
	for w := range b.blocks {
		blk := &b.blocks[w]
		for i := range blk.attrs {
			blk.attrs[i].free = blk.bits &^ blk.attrs[i].free
		}
	}
	return b.blocks
}

// Blocks returns the number of words Probe fills.
func (x *Index) Blocks() int { return len(x.blocks) }

// Probe evaluates the event against every line at once, leaving in hits —
// Blocks() words, the caller's scratch — the disjuncts it satisfies, for
// Hit to read. It counts one Eval per distinct non-nil line and one
// Comparison per attribute probe.
func (x *Index) Probe(ev event.Event, hits []uint64, mc *MatchCounter) {
	if mc != nil {
		mc.Evals += x.langs
	}
	for w := range x.blocks {
		hits[w] = x.blocks[w].probe(ev, x.blocks[w].bits, mc)
	}
}

// Hit reports whether the line matched, given the hits a Probe left.
func (x *Index) Hit(hits []uint64, line int) bool {
	l := &x.lines[line]
	if l.all {
		return true
	}
	for lo := l.lo; lo < l.hi; {
		end := min(l.hi, (lo|63)+1)
		if hits[lo>>6]&span(lo, end) != 0 {
			return true
		}
		lo = end
	}
	return false
}

// span returns the bits [lo, hi) of lo's block; hi is at most its end.
func span(lo, hi int32) uint64 {
	return ^uint64(0) >> (64 - (hi - lo)) << (lo & 63)
}

// Line returns the handle on one line.
func (x *Index) Line(line int) *CompiledMatcher { return &x.handles[line] }

// CompiledMatcher is a handle on one line of an Index: it answers for that
// line alone, probing only the attributes the line's own disjuncts
// constrain. The nil matcher matches nothing. Safe for concurrent use.
type CompiledMatcher struct {
	x    *Index
	line int
}

// Matches reports whether the line's summary matches the event.
func (m *CompiledMatcher) Matches(ev event.Event) bool {
	if m == nil {
		return false
	}
	l := &m.x.lines[m.line]
	if l.all {
		return true
	}
	for lo := l.lo; lo < l.hi; {
		end := min(l.hi, (lo|63)+1)
		if m.x.blocks[lo>>6].probe(ev, span(lo, end), nil) != 0 {
			return true
		}
		lo = end
	}
	return false
}

// Compile indexes one subscription. The empty (match-all) subscription
// matches every event; one with an unsatisfiable criterion still compiles
// and never matches, keeping the answers equal to Subscription.Matches.
func Compile(s Subscription) *CompiledMatcher {
	return NewIndex([]*Summary{{subs: []Subscription{s}}}, nil).Line(0)
}

// CompileSummary indexes one summary's disjunction.
func CompileSummary(s *Summary) *CompiledMatcher {
	return NewIndex([]*Summary{s}, nil).Line(0)
}

// Fingerprint returns the canonical identity of the subscription's matched
// language: the wire encoding, which is already canonical (criteria sorted
// by attribute, interval sets normalized, string sets sorted and deduped).
// It is the string Identity stands for, encoded once per value.
func (s Subscription) Fingerprint() string {
	return s.Identity().h.Value()
}
