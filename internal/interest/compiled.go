package interest

import (
	"sort"
	"strings"

	"pmcast/internal/event"
)

// This file is the compile step of the matching engine: Subscriptions and
// Summaries — the interpretive, merge-walked representations regrouping
// works on — compile into immutable CompiledMatcher values built for the
// read side. Every per-attribute criterion becomes an index: numeric
// criteria keep their normalized interval array (disjoint, sorted, binary
// searched — IntervalSet.Contains already is that index), string criteria
// trade the sorted slice for a hashed set, and the conjunction keeps its
// criteria cheapest-first so mismatches short-circuit early. A canonical
// fingerprint (Summary.Fingerprint) identifies the matched language itself,
// so structurally identical interests — a fleet where hundreds of processes
// subscribe to the same classes — can share one compiled form: internal/tree
// interns compiled summaries under it.
//
// The interpretive Matches implementations on Subscription and Summary stay
// exactly as they were: they are the oracle the property and fuzz tests
// hold the compiled path to.

// MatchCounter tallies the work of matcher evaluations: Evals counts
// matcher invocations (one disjunction tested against one event) and
// Comparisons counts per-attribute criterion evaluations inside them — the
// unit the paper's "evaluation time" complexity bound (Section 2.3) is
// about, and the currency the susceptibility cache saves. Counters are
// plain fields; callers own any synchronization.
type MatchCounter struct {
	Evals       uint64
	Comparisons uint64
}

// Add accumulates another counter into c.
func (c *MatchCounter) Add(d MatchCounter) {
	c.Evals += d.Evals
	c.Comparisons += d.Comparisons
}

// smallStringSet is the size up to which a sorted-slice binary search beats
// a hashed set for string criteria (hashing the whole key costs more than a
// handful of comparisons).
const smallStringSet = 16

// compiledCriterion is one per-attribute index of a compiled conjunction.
type compiledCriterion struct {
	attr string
	kind criterionKind
	// nums is the numeric index: disjoint sorted intervals, binary searched.
	nums IntervalSet
	// strSet is the string index for large sets: a hashed set replacing the
	// sorted-slice search. Small sets keep the sorted slice (strList).
	strSet  map[string]struct{}
	strList []string
	b       bool
}

// matches evaluates the criterion against one attribute value.
func (c *compiledCriterion) matches(v event.Value) bool {
	switch c.kind {
	case kindAny:
		return !v.IsZero()
	case kindNumeric:
		n, ok := v.Numeric()
		return ok && c.nums.Contains(n)
	case kindString:
		s, ok := v.AsString()
		if !ok {
			return false
		}
		if c.strSet != nil {
			_, in := c.strSet[s]
			return in
		}
		i := sort.SearchStrings(c.strList, s)
		return i < len(c.strList) && c.strList[i] == s
	case kindBool:
		b, ok := v.AsBool()
		return ok && b == c.b
	default:
		return false
	}
}

// compiledConjunction is one disjunct: a conjunction of per-attribute
// indexes in sorted attribute order, evaluated as a short-circuiting merge
// walk against the event's (equally sorted) attributes — no per-criterion
// binary search.
type compiledConjunction struct {
	crits []compiledCriterion
}

func (cc *compiledConjunction) matches(ev event.Event, mc *MatchCounter) bool {
	n := ev.Len()
	j := 0
	for i := range cc.crits {
		if mc != nil {
			mc.Comparisons++
		}
		attr := cc.crits[i].attr
		for {
			if j == n {
				return false // event lacks the constrained attribute
			}
			name, v := ev.AttrAt(j)
			if name < attr {
				j++
				continue
			}
			if name != attr {
				return false // walked past it: attribute absent
			}
			if !cc.crits[i].matches(v) {
				return false
			}
			j++
			break
		}
	}
	return true
}

// CompiledMatcher is the immutable compiled form of a subscription or
// summary: a disjunction of indexed conjunctions. The nil matcher matches
// nothing (like a nil Summary); a
// match-all matcher answers without touching the event. CompiledMatcher is
// safe for concurrent use — compilation produced it, nothing mutates it.
type CompiledMatcher struct {
	matchAll  bool
	disjuncts []compiledConjunction
}

var _ Matcher = (*CompiledMatcher)(nil)

// Matches reports whether any compiled disjunct matches the event.
func (m *CompiledMatcher) Matches(ev event.Event) bool {
	return m.MatchesCounted(ev, nil)
}

// MatchesCounted is Matches with work accounting: one Eval for the
// invocation plus one Comparison per attribute criterion consulted. A nil
// counter skips accounting.
func (m *CompiledMatcher) MatchesCounted(ev event.Event, mc *MatchCounter) bool {
	if m == nil {
		return false
	}
	if mc != nil {
		mc.Evals++
	}
	if m.matchAll {
		return true
	}
	for i := range m.disjuncts {
		if m.disjuncts[i].matches(ev, mc) {
			return true
		}
	}
	return false
}

// IsMatchAll reports whether the matcher accepts every event.
func (m *CompiledMatcher) IsMatchAll() bool { return m != nil && m.matchAll }

// Fingerprint returns the canonical identity of the subscription's matched
// language: the wire encoding, which is already canonical (criteria sorted
// by attribute, interval sets normalized, string sets sorted and deduped).
// It is the string Identity stands for, encoded once per value.
func (s Subscription) Fingerprint() string {
	return s.Identity().h.Value()
}

// OrderedFingerprint identifies the summary as a regrouping input: the
// disjunct fingerprints in accumulation order (plus a match-all sentinel).
// Unlike Fingerprint — which sorts — this one is order-sensitive, because
// the regrouping heuristics fold disjuncts in slice order: only
// order-identical summaries are interchangeable as inputs to a further Merge.
func (s *Summary) OrderedFingerprint() string {
	if s == nil {
		return ""
	}
	if s.matchAll {
		return "\x01*"
	}
	var sb strings.Builder
	for _, sub := range s.subs {
		sb.WriteString(sub.Fingerprint())
		sb.WriteByte(0)
	}
	return sb.String()
}

// Fingerprint returns the canonical identity of the summary's matched
// language: the sorted fingerprints of its disjuncts (Add/compact order is
// arrival-dependent, the language is not), with sentinels for match-all and
// match-nothing. Summaries with equal fingerprints accept exactly the same
// events. (The converse is not guaranteed — semantically equal interests with
// different structure may fingerprint apart — which is the right trade for an
// interning key.)
func (s *Summary) Fingerprint() string {
	if s == nil || s.IsEmpty() {
		return "\x00empty"
	}
	if s.matchAll {
		return "\x00all"
	}
	fps := make([]string, len(s.subs))
	for i, sub := range s.subs {
		fps[i] = sub.Fingerprint()
	}
	sort.Strings(fps)
	return strings.Join(fps, "\x00")
}

// compileConjunction indexes one subscription's criteria.
func compileConjunction(s Subscription) compiledConjunction {
	cc := compiledConjunction{crits: make([]compiledCriterion, 0, len(s.criteria))}
	for i := range s.criteria {
		crit := s.criteria[i].crit
		c := compiledCriterion{attr: s.criteria[i].attr, kind: crit.kind, b: crit.b}
		switch crit.kind {
		case kindNumeric:
			c.nums = crit.nums
		case kindString:
			if len(crit.strs) > smallStringSet {
				c.strSet = make(map[string]struct{}, len(crit.strs))
				for _, str := range crit.strs {
					c.strSet[str] = struct{}{}
				}
			} else {
				c.strList = crit.strs
			}
		}
		cc.crits = append(cc.crits, c)
	}
	// Criteria stay in the subscription's canonical attribute order — the
	// merge walk depends on it.
	return cc
}

// Compile compiles a subscription. The empty (match-all) subscription
// compiles to the match-all matcher; a subscription with an unsatisfiable
// criterion still compiles (its conjunction simply never matches), keeping
// compiled semantics bit-for-bit equal to the interpretive path.
func Compile(s Subscription) *CompiledMatcher {
	if s.IsMatchAll() {
		return &CompiledMatcher{matchAll: true}
	}
	return &CompiledMatcher{disjuncts: []compiledConjunction{compileConjunction(s)}}
}

// CompileSummary compiles a summary's disjunction. Disjuncts are compiled
// in fingerprint order — a canonical form, so equal languages produce equal
// evaluation order (and equal MatchCounter accounting) no matter how the
// summary was accumulated.
func CompileSummary(s *Summary) *CompiledMatcher {
	if s == nil || s.IsEmpty() {
		return &CompiledMatcher{}
	}
	if s.matchAll {
		return &CompiledMatcher{matchAll: true}
	}
	subs := make([]Subscription, len(s.subs))
	copy(subs, s.subs)
	sort.Slice(subs, func(i, j int) bool {
		return subs[i].Fingerprint() < subs[j].Fingerprint()
	})
	m := &CompiledMatcher{disjuncts: make([]compiledConjunction, len(subs))}
	for i, sub := range subs {
		m.disjuncts[i] = compileConjunction(sub)
	}
	return m
}
