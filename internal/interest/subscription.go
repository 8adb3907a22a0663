package interest

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"unique"

	"pmcast/internal/event"
)

// ErrInvalidCriterion reports a zero-value (never constructed) Criterion
// handed to Subscription construction. The zero Criterion is documented
// invalid — it is not the wildcard (that is Any()) and not the empty
// criterion (that is an exhausted interval or string set) — so accepting it
// silently would build a subscription whose semantics the caller never
// chose. Constrain rejects it early instead.
var ErrInvalidCriterion = errors.New("interest: zero-value Criterion (use Any() for the wildcard)")

// attrCriterion is one (attribute, constraint) pair of a conjunction.
type attrCriterion struct {
	attr string
	crit Criterion
}

// Subscription is a conjunction of per-attribute criteria, one line of a
// depth-d view table (paper Figure 2): e.g.
//
//	b = 2, c > 40.0, z = 20000
//
// Attributes without a criterion are wildcards. The zero Subscription
// matches every event.
//
// The criteria are a slice sorted by attribute, not a map: subscriptions are
// tiny (a handful of attributes), read constantly on the hot paths — summary
// regrouping, susceptibility tests, matching-rate scans — and iterated far
// more often than they are built. Sorted slices make Subsumes/Equal/HullWith
// linear merge-walks with no iterator or hashing overhead.
type Subscription struct {
	// criteria is sorted by attribute and never contains wildcard entries
	// (absence means wildcard). It is never modified once the value exists.
	criteria []attrCriterion
	// ident memoizes Identity. Copies of one value share the cell, so a
	// subscription handed to a whole co-hosted fleet is encoded once; every
	// construction that yields different criteria starts a fresh cell. Nil on
	// the zero Subscription.
	ident *identCell
}

// Identity names a subscription's canonical encoding: two subscriptions
// have equal identities exactly when their encodings are byte-equal, however
// and wherever in the process they were built. It is fixed-width and
// comparable, which is all it offers — the value behind it differs from run
// to run, so it must never be encoded, reported or ordered by.
type Identity struct{ h unique.Handle[string] }

// identCell is the memo behind Subscription.Identity.
type identCell struct {
	once sync.Once
	id   Identity
}

// matchAllIdentity is the identity of the zero Subscription, which has no
// cell to memoize into.
var matchAllIdentity = Subscription{}.encodeIdentity()

// withCriteria wraps freshly built criteria (owned by the result).
func withCriteria(criteria []attrCriterion) Subscription {
	if len(criteria) == 0 {
		return Subscription{}
	}
	return Subscription{criteria: criteria, ident: new(identCell)}
}

func (s Subscription) encodeIdentity() Identity {
	return Identity{unique.Make(string(AppendSubscription(nil, s)))}
}

// Identity returns the subscription's identity, encoding it at most once per
// constructed value (see Identity for what it may be used for).
func (s Subscription) Identity() Identity {
	if s.ident == nil {
		return matchAllIdentity
	}
	s.ident.once.Do(func() { s.ident.id = s.encodeIdentity() })
	return s.ident.id
}

// WireSize returns the exact number of bytes AppendSubscription would emit:
// the length of the canonical encoding Identity memoizes, so sizing a
// subscription that has been identified is O(1) and never encodes again.
func (s Subscription) WireSize() int {
	return len(s.Fingerprint())
}

// NewSubscription returns an empty (match-all) subscription.
func NewSubscription() Subscription { return Subscription{} }

// clone returns an independent copy. Criterion values are immutable once
// built, so copying the pair slice suffices.
func (s Subscription) clone() Subscription {
	return Subscription{criteria: append([]attrCriterion(nil), s.criteria...), ident: s.ident}
}

// find returns the index of attr in the sorted criteria, or the insertion
// point with ok=false.
func (s Subscription) find(attr string) (int, bool) {
	i := sort.Search(len(s.criteria), func(i int) bool { return s.criteria[i].attr >= attr })
	return i, i < len(s.criteria) && s.criteria[i].attr == attr
}

// Where returns a copy of the subscription with an added criterion on the
// named attribute. Re-constraining an attribute keeps the latest criterion
// (callers own the semantics of re-constraining); a wildcard criterion
// removes the constraint. Where panics on the invalid zero Criterion — a
// programmer error caught at construction, not at match time; use Constrain
// when the criterion comes from untrusted input.
func (s Subscription) Where(attr string, c Criterion) Subscription {
	out, err := s.Constrain(attr, c)
	if err != nil {
		panic(fmt.Sprintf("interest: Where(%q): %v", attr, err))
	}
	return out
}

// Constrain is Where with early validation: the invalid zero Criterion is
// rejected with ErrInvalidCriterion instead of silently building a
// subscription that matches nothing the caller intended.
func (s Subscription) Constrain(attr string, c Criterion) (Subscription, error) {
	if !c.IsValid() {
		return s, fmt.Errorf("%w (attribute %q)", ErrInvalidCriterion, attr)
	}
	i, ok := s.find(attr)
	switch {
	case c.IsAny() && !ok:
		return s, nil // removing an absent constraint: nothing to copy
	case c.IsAny():
		out := make([]attrCriterion, 0, len(s.criteria)-1)
		out = append(out, s.criteria[:i]...)
		return withCriteria(append(out, s.criteria[i+1:]...)), nil
	case ok:
		out := append([]attrCriterion(nil), s.criteria...)
		out[i].crit = c
		return withCriteria(out), nil
	default:
		out := make([]attrCriterion, 0, len(s.criteria)+1)
		out = append(out, s.criteria[:i]...)
		out = append(out, attrCriterion{attr: attr, crit: c})
		return withCriteria(append(out, s.criteria[i:]...)), nil
	}
}

// Matches reports whether the event satisfies every criterion. Events
// lacking a constrained attribute do not match (events of the considered
// type carry all attributes; a missing one cannot satisfy a criterion).
func (s Subscription) Matches(ev event.Event) bool {
	return s.MatchesCounted(ev, nil)
}

// MatchesCounted is Matches with work accounting in the same units the
// compiled engine reports — one Comparison per attribute criterion
// consulted — so the interpretive oracle's cost and the compiled path's
// cost are directly comparable. A nil counter skips accounting.
func (s Subscription) MatchesCounted(ev event.Event, mc *MatchCounter) bool {
	for i := range s.criteria {
		if mc != nil {
			mc.Comparisons++
		}
		v, ok := ev.Lookup(s.criteria[i].attr)
		if !ok || !s.criteria[i].crit.Matches(v) {
			return false
		}
	}
	return true
}

// Criterion returns the constraint on the named attribute; the wildcard if
// unconstrained.
func (s Subscription) Criterion(attr string) Criterion {
	if i, ok := s.find(attr); ok {
		return s.criteria[i].crit
	}
	return Any()
}

// Attrs returns the constrained attribute names in sorted order.
func (s Subscription) Attrs() []string {
	attrs := make([]string, len(s.criteria))
	for i := range s.criteria {
		attrs[i] = s.criteria[i].attr
	}
	return attrs
}

// IsMatchAll reports whether the subscription has no constraints.
func (s Subscription) IsMatchAll() bool { return len(s.criteria) == 0 }

// IsEmpty reports whether some criterion is unsatisfiable, making the whole
// conjunction match nothing.
func (s Subscription) IsEmpty() bool {
	for i := range s.criteria {
		if s.criteria[i].crit.IsEmpty() {
			return true
		}
	}
	return false
}

// Subsumes reports whether every event matched by t is matched by s (s ⊇ t).
// This holds iff every attribute constrained by s is constrained at least as
// tightly by t. Both criterion lists are sorted, so this is one merge walk.
func (s Subscription) Subsumes(t Subscription) bool {
	if t.IsEmpty() {
		return true
	}
	j := 0
	for i := range s.criteria {
		attr := s.criteria[i].attr
		for j < len(t.criteria) && t.criteria[j].attr < attr {
			j++
		}
		if j == len(t.criteria) || t.criteria[j].attr != attr {
			return false // t is wildcard here, s is not
		}
		if !s.criteria[i].crit.Subsumes(t.criteria[j].crit) {
			return false
		}
		j++
	}
	return true
}

// Equal reports whether two subscriptions match exactly the same events.
func (s Subscription) Equal(t Subscription) bool {
	return s.Subsumes(t) && t.Subsumes(s)
}

// HullWith merges two subscriptions into a single conjunction that
// over-approximates their disjunction: attributes constrained by both keep
// the union of their criteria; attributes constrained by only one side are
// dropped (widened to wildcard). This is the lossy merge step of interest
// regrouping; one merge walk over the sorted criteria.
func (s Subscription) HullWith(t Subscription) Subscription {
	var out []attrCriterion
	j := 0
	for i := range s.criteria {
		attr := s.criteria[i].attr
		for j < len(t.criteria) && t.criteria[j].attr < attr {
			j++
		}
		if j == len(t.criteria) {
			break
		}
		if t.criteria[j].attr != attr {
			continue
		}
		u := s.criteria[i].crit.Union(t.criteria[j].crit)
		j++
		if u.IsAny() {
			continue
		}
		out = append(out, attrCriterion{attr: attr, crit: u})
	}
	return withCriteria(out)
}

// hullCostWith predicts HullWith's cost without materializing the hull:
// how many constrained attributes the hull would drop (widen to wildcard)
// and the hull's resulting Size. One merge walk, allocation-free — the
// closest-pair search of regrouping scores candidate pairs and only the
// winner's hull is ever built.
func (s Subscription) hullCostWith(t Subscription) (dropped, size int) {
	return s.hullWalk(t, true)
}

// hullScore is the closest-pair score of merging s with t: attributes the
// hull drops ×1000 plus the hull's size.
func (s Subscription) hullScore(t Subscription) int {
	dropped, size := s.hullWalk(t, true)
	return dropped*1000 + size
}

// hullScoreBound is a lower bound on hullScore from the same walk with no
// string-set or interval merge: attributes only one side constrains are
// dropped exactly, and each shared one is costed by unionCostBound.
func (s Subscription) hullScoreBound(t Subscription) int {
	dropped, size := s.hullWalk(t, false)
	return dropped*1000 + size
}

// hullWalk is hullCostWith, exact or, when exact is false, with every shared
// attribute costed by unionCostBound.
func (s Subscription) hullWalk(t Subscription, exact bool) (dropped, size int) {
	kept := 0
	j := 0
	for i := range s.criteria {
		attr := s.criteria[i].attr
		for j < len(t.criteria) && t.criteria[j].attr < attr {
			j++
		}
		if j == len(t.criteria) {
			break
		}
		if t.criteria[j].attr != attr {
			continue
		}
		var k bool
		var sz int
		if exact {
			k, sz = s.criteria[i].crit.unionCost(t.criteria[j].crit)
		} else {
			k, sz = s.criteria[i].crit.unionCostBound(t.criteria[j].crit)
		}
		j++
		if k {
			kept++
			size += sz
		}
	}
	return len(s.criteria) + len(t.criteria) - 2*kept, size
}

// Size is the total number of criterion disjuncts, the complexity measure
// bounded by regrouping.
func (s Subscription) Size() int {
	n := 0
	for i := range s.criteria {
		n += s.criteria[i].crit.Size()
	}
	return n
}

// String renders the subscription in the paper's Figure 2 style:
// "b = 2, c > 40, z = 20000"; the match-all subscription renders as "*".
func (s Subscription) String() string {
	if len(s.criteria) == 0 {
		return "*"
	}
	parts := make([]string, len(s.criteria))
	for i := range s.criteria {
		parts[i] = s.criteria[i].crit.Render(s.criteria[i].attr)
	}
	return strings.Join(parts, ", ")
}
