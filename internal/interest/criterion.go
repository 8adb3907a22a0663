package interest

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"pmcast/internal/event"
)

// criterionKind discriminates the domain of a per-attribute criterion.
// Kinds start at 1 so the zero criterion is detectably invalid.
type criterionKind int

const (
	kindAny criterionKind = iota + 1
	kindNumeric
	kindString
	kindBool
)

// Criterion constrains a single event attribute: a union of numeric
// intervals, a set of admissible strings, a boolean constant, or the
// wildcard. Criteria are immutable values; the zero Criterion is invalid
// (use Any() for the wildcard) and is rejected at subscription
// construction — Subscription.Constrain returns ErrInvalidCriterion,
// Where panics.
type Criterion struct {
	kind criterionKind
	nums IntervalSet
	strs []string // sorted, unique
	b    bool
}

// Any returns the wildcard criterion matching every value.
func Any() Criterion { return Criterion{kind: kindAny} }

// Eq constrains the attribute to a single value of any supported type.
// NaN, like an invalid value, admits nothing.
func Eq(v event.Value) Criterion {
	if n, ok := v.Numeric(); ok {
		if math.IsNaN(n) {
			return Criterion{kind: kindNumeric}
		}
		return Criterion{kind: kindNumeric, nums: IntervalSet{PointInterval(n)}}
	}
	if s, ok := v.AsString(); ok {
		return Criterion{kind: kindString, strs: []string{s}}
	}
	if b, ok := v.AsBool(); ok {
		return Criterion{kind: kindBool, b: b}
	}
	// Invalid value: admit nothing.
	return Criterion{kind: kindNumeric, nums: nil}
}

// EqInt constrains a numeric attribute to exactly x (e.g. "b = 2").
func EqInt(x int64) Criterion { return Eq(event.Int(x)) }

// EqFloat constrains a numeric attribute to exactly x.
func EqFloat(x float64) Criterion { return Eq(event.Float(x)) }

// Gt constrains a numeric attribute to values strictly greater than x.
func Gt(x float64) Criterion {
	return fromInterval(Interval{Lo: x, Hi: inf(), LoOpen: true, HiOpen: true})
}

// Ge constrains a numeric attribute to values ≥ x.
func Ge(x float64) Criterion {
	return fromInterval(Interval{Lo: x, Hi: inf(), HiOpen: true})
}

// Lt constrains a numeric attribute to values strictly less than x.
func Lt(x float64) Criterion {
	return fromInterval(Interval{Lo: ninf(), Hi: x, LoOpen: true, HiOpen: true})
}

// Le constrains a numeric attribute to values ≤ x.
func Le(x float64) Criterion {
	return fromInterval(Interval{Lo: ninf(), Hi: x, LoOpen: true})
}

// Between constrains a numeric attribute to the open interval (lo, hi),
// matching the paper's "10.0 < c < 220.0" style.
func Between(lo, hi float64) Criterion {
	return fromInterval(Interval{Lo: lo, Hi: hi, LoOpen: true, HiOpen: true})
}

// BetweenIncl constrains a numeric attribute to the closed interval [lo, hi].
func BetweenIncl(lo, hi float64) Criterion {
	return fromInterval(Interval{Lo: lo, Hi: hi})
}

// InIntervals builds a numeric criterion from an arbitrary interval union.
func InIntervals(ivs ...Interval) Criterion {
	return Criterion{kind: kindNumeric, nums: NormalizeIntervals(ivs)}
}

// OneOf constrains a string attribute to the given set of values, matching
// the paper's `e = "Bob" ∨ "Tom"` style.
func OneOf(ss ...string) Criterion {
	u := make([]string, len(ss))
	copy(u, ss)
	sort.Strings(u)
	u = dedupSorted(u)
	return Criterion{kind: kindString, strs: u}
}

// IsBool constrains a boolean attribute to the constant b.
func IsBool(b bool) Criterion { return Criterion{kind: kindBool, b: b} }

func fromInterval(iv Interval) Criterion {
	return Criterion{kind: kindNumeric, nums: NormalizeIntervals([]Interval{iv})}
}

func inf() float64  { return math.Inf(1) }
func ninf() float64 { return math.Inf(-1) }

func dedupSorted(ss []string) []string {
	if len(ss) == 0 {
		return ss
	}
	out := ss[:1]
	for _, s := range ss[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

// mergedUniqueCount returns len(mergeSortedUnique(a, b)) without building
// the merge when that is at most limit, and limit+1 otherwise. It stops as
// soon as the union must pass limit — at once when one side alone does, and
// mid-walk once the strings counted plus the longer remainder do — and makes
// one three-way compare per step.
func mergedUniqueCount(a, b []string, limit int) int {
	if len(a) > limit || len(b) > limit {
		return limit + 1
	}
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch c := strings.Compare(a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			i, j = i+1, j+1
		}
		if n++; n+max(len(a)-i, len(b)-j) > limit {
			return limit + 1
		}
	}
	return min(n+len(a)-i+len(b)-j, limit+1)
}

// mergeSortedUnique merges two sorted, deduplicated string slices into a
// fresh sorted, deduplicated slice — the linear union of two canonical
// string sets (the sort-free hot path of string-criterion regrouping).
func mergeSortedUnique(a, b []string) []string {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var s string
		switch {
		case i == len(a):
			s, j = b[j], j+1
		case j == len(b):
			s, i = a[i], i+1
		case a[i] < b[j]:
			s, i = a[i], i+1
		case b[j] < a[i]:
			s, j = b[j], j+1
		default:
			s, i, j = a[i], i+1, j+1
		}
		out = append(out, s)
	}
	return out
}

// IsValid reports whether the criterion was properly constructed.
func (c Criterion) IsValid() bool { return c.kind != 0 }

// IsAny reports whether the criterion is the wildcard.
func (c Criterion) IsAny() bool { return c.kind == kindAny }

// IsEmpty reports whether the criterion can match no value at all.
func (c Criterion) IsEmpty() bool {
	switch c.kind {
	case kindNumeric:
		return c.nums.IsEmpty()
	case kindString:
		return len(c.strs) == 0
	default:
		return false
	}
}

// Matches reports whether a concrete attribute value satisfies the criterion.
// Values of a kind foreign to the criterion's domain do not match.
func (c Criterion) Matches(v event.Value) bool {
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
		i := sort.SearchStrings(c.strs, s)
		return i < len(c.strs) && c.strs[i] == s
	case kindBool:
		b, ok := v.AsBool()
		return ok && b == c.b
	default:
		return false
	}
}

// Subsumes reports whether every value admitted by d is admitted by c
// (c ⊇ d). Cross-domain criteria never subsume each other, except that the
// wildcard subsumes everything.
func (c Criterion) Subsumes(d Criterion) bool {
	if c.kind == kindAny {
		return true
	}
	if d.kind == kindAny {
		return false
	}
	if c.kind != d.kind {
		return d.IsEmpty()
	}
	switch c.kind {
	case kindNumeric:
		return d.nums.SubsetOf(c.nums)
	case kindString:
		if len(d.strs) > len(c.strs) {
			return false // both sets are deduplicated
		}
		for _, s := range d.strs {
			i := sort.SearchStrings(c.strs, s)
			if i >= len(c.strs) || c.strs[i] != s {
				return false
			}
		}
		return true
	case kindBool:
		return c.b == d.b
	default:
		return false
	}
}

// Regrouping caps: beyond these sizes a unioned criterion widens further —
// a numeric union to its single-interval hull, a string union to the
// wildcard. Regrouping exists to bound "the complexity of the interests
// both in terms of memory space and in terms of evaluation time"
// (Section 2.3); without a per-criterion cap, merging many multi-point
// interests (the high-cardinality workloads) grows interval unions without
// bound and the closest-pair heuristic goes quadratic over them. Widening
// is always a legal over-approximation: summaries may admit more, never
// less.
const (
	// MaxNumericDisjuncts bounds the intervals a regrouped numeric
	// criterion keeps before collapsing to its hull.
	MaxNumericDisjuncts = 16
	// MaxStringDisjuncts bounds the admissible strings a regrouped string
	// criterion keeps before widening to the wildcard.
	MaxStringDisjuncts = 64
)

// Union returns a criterion admitting every value admitted by either input.
// Unions across different domains (e.g. numeric with string) widen to the
// wildcard, and unions past the regrouping caps widen to their hull — this
// is the lossy step of interest regrouping and is always an
// over-approximation.
func (c Criterion) Union(d Criterion) Criterion {
	if c.kind == kindAny || d.kind == kindAny {
		return Any()
	}
	if c.IsEmpty() {
		return d
	}
	if d.IsEmpty() {
		return c
	}
	if c.kind != d.kind {
		return Any()
	}
	switch c.kind {
	case kindNumeric:
		u := c.nums.Union(d.nums)
		if len(u) > MaxNumericDisjuncts {
			u = IntervalSet{u.Hull()}
		}
		return Criterion{kind: kindNumeric, nums: u}
	case kindString:
		merged := mergeSortedUnique(c.strs, d.strs)
		if len(merged) > MaxStringDisjuncts {
			return Any()
		}
		return Criterion{kind: kindString, strs: merged}
	case kindBool:
		if c.b == d.b {
			return c
		}
		return Any()
	default:
		return Any()
	}
}

// unionCost predicts Union's outcome without materializing it: whether the
// union survives as a constraint (false means it widens to the wildcard and
// the attribute is dropped from a hull) and, if kept, its Size. Mirrors
// Union case for case, caps included.
func (c Criterion) unionCost(d Criterion) (kept bool, size int) {
	if c.kind == kindAny || d.kind == kindAny {
		return false, 0
	}
	if c.IsEmpty() {
		return true, d.Size()
	}
	if d.IsEmpty() {
		return true, c.Size()
	}
	if c.kind != d.kind {
		return false, 0
	}
	switch c.kind {
	case kindNumeric:
		n := c.nums.unionCount(d.nums)
		if n > MaxNumericDisjuncts {
			n = 1 // the union collapses to its hull interval
		}
		return true, n
	case kindString:
		n := mergedUniqueCount(c.strs, d.strs, MaxStringDisjuncts)
		if n > MaxStringDisjuncts {
			return false, 0
		}
		return true, n
	case kindBool:
		if c.b == d.b {
			return true, 1
		}
		return false, 0
	default:
		return false, 0
	}
}

// unionCostBound is unionCost without merging a string set or an interval
// union: a lower bound on what the union costs a hull. Two non-empty interval
// unions keep at least one interval; two non-empty string sets are dropped
// exactly when one alone passes MaxStringDisjuncts, and otherwise keep at
// least the larger set's strings — if the merge then passed the cap after
// all, the dropped attribute adds 2000 to the hull score, more than any kept
// string set costs. Every other arm is unionCost's.
func (c Criterion) unionCostBound(d Criterion) (kept bool, size int) {
	if c.kind != d.kind || c.IsEmpty() || d.IsEmpty() {
		return c.unionCost(d)
	}
	switch c.kind {
	case kindNumeric:
		return true, 1
	case kindString:
		n := max(len(c.strs), len(d.strs))
		if n > MaxStringDisjuncts {
			return false, 0
		}
		return true, n
	default:
		return c.unionCost(d)
	}
}

// Equal reports whether two criteria admit exactly the same values.
func (c Criterion) Equal(d Criterion) bool {
	return c.Subsumes(d) && d.Subsumes(c)
}

// Size is a rough complexity measure (number of disjuncts) used by the
// regrouping heuristics to bound summary growth.
func (c Criterion) Size() int {
	switch c.kind {
	case kindNumeric:
		return len(c.nums)
	case kindString:
		return len(c.strs)
	default:
		return 1
	}
}

// Render renders the criterion as a predicate on the named attribute, in the
// paper's style (Figure 2).
func (c Criterion) Render(attr string) string {
	switch c.kind {
	case kindAny:
		return attr + " = *"
	case kindNumeric:
		return c.nums.Render(attr)
	case kindString:
		if len(c.strs) == 0 {
			return attr + " ∈ ∅"
		}
		parts := make([]string, len(c.strs))
		for i, s := range c.strs {
			parts[i] = strconv.Quote(s)
		}
		return attr + " = " + strings.Join(parts, " ∨ ")
	case kindBool:
		return attr + " = " + strconv.FormatBool(c.b)
	default:
		return attr + " = <invalid>"
	}
}
