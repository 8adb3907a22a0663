// Package interest implements content-based subscriptions for pmcast:
// per-attribute predicates over typed event attributes, event matching, and
// the interest "regrouping" (compaction into over-approximated summaries)
// that view tables apply when ascending the tree (paper Section 2.3).
package interest

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// Interval is a set of real numbers between two bounds, each of which may be
// open, closed, or infinite. The zero Interval is empty. Intervals represent
// numeric criteria such as "c > 155.6" or "10.0 < c < 220.0".
type Interval struct {
	Lo, Hi         float64
	LoOpen, HiOpen bool
}

// PointInterval returns the degenerate interval {x}.
func PointInterval(x float64) Interval { return Interval{Lo: x, Hi: x} }

// IsEmpty reports whether the interval contains no points. An interval
// with a NaN bound is empty: no number compares with NaN.
func (iv Interval) IsEmpty() bool {
	if !(iv.Lo <= iv.Hi) {
		return true
	}
	if iv.Lo == iv.Hi {
		// Zero value (0,0 with both bounds closed) is a point; treat the
		// all-zero struct as the point {0}, and open bounds as empty.
		return iv.LoOpen || iv.HiOpen
	}
	return false
}

// Contains reports whether x lies in the interval. NaN lies in none, and an
// interval with a NaN bound contains nothing.
func (iv Interval) Contains(x float64) bool {
	return (x > iv.Lo || (x == iv.Lo && !iv.LoOpen)) &&
		(x < iv.Hi || (x == iv.Hi && !iv.HiOpen))
}

// SubsetOf reports whether iv is entirely contained in jv.
func (iv Interval) SubsetOf(jv Interval) bool {
	if iv.IsEmpty() {
		return true
	}
	if jv.IsEmpty() {
		return false
	}
	loOK := iv.Lo > jv.Lo || (iv.Lo == jv.Lo && (jv.LoOpen == false || iv.LoOpen))
	hiOK := iv.Hi < jv.Hi || (iv.Hi == jv.Hi && (jv.HiOpen == false || iv.HiOpen))
	return loOK && hiOK
}

// overlapsOrTouches reports whether the union of the two intervals is a
// single interval (they intersect or are adjacent with at least one closed
// endpoint at the junction).
func (iv Interval) overlapsOrTouches(jv Interval) bool {
	if iv.IsEmpty() || jv.IsEmpty() {
		return false
	}
	if iv.Lo > jv.Hi || (iv.Lo == jv.Hi && iv.LoOpen && jv.HiOpen) {
		return false
	}
	if jv.Lo > iv.Hi || (jv.Lo == iv.Hi && jv.LoOpen && iv.HiOpen) {
		return false
	}
	return true
}

// Hull returns the smallest interval containing both intervals.
func (iv Interval) Hull(jv Interval) Interval {
	if iv.IsEmpty() {
		return jv
	}
	if jv.IsEmpty() {
		return iv
	}
	out := iv
	if jv.Lo < out.Lo || (jv.Lo == out.Lo && !jv.LoOpen) {
		out.Lo, out.LoOpen = jv.Lo, jv.LoOpen
	}
	if jv.Hi > out.Hi || (jv.Hi == out.Hi && !jv.HiOpen) {
		out.Hi, out.HiOpen = jv.Hi, jv.HiOpen
	}
	return out
}

// Equal reports whether two intervals denote the same point set.
func (iv Interval) Equal(jv Interval) bool {
	if iv.IsEmpty() && jv.IsEmpty() {
		return true
	}
	return iv.Lo == jv.Lo && iv.Hi == jv.Hi && iv.LoOpen == jv.LoOpen && iv.HiOpen == jv.HiOpen
}

// String renders the interval against an attribute placeholder, matching the
// paper's rendering style: "x > 3", "10 < x < 220", "x = 42".
func (iv Interval) String() string { return iv.Render("x") }

// Render renders the interval as a predicate over the named attribute.
func (iv Interval) Render(attr string) string {
	if iv.IsEmpty() {
		return attr + " ∈ ∅"
	}
	loInf, hiInf := math.IsInf(iv.Lo, -1), math.IsInf(iv.Hi, 1)
	switch {
	case loInf && hiInf:
		return attr + " = *"
	case iv.Lo == iv.Hi:
		return attr + " = " + fmtFloat(iv.Lo)
	case loInf && iv.HiOpen:
		return attr + " < " + fmtFloat(iv.Hi)
	case loInf:
		return attr + " ≤ " + fmtFloat(iv.Hi)
	case hiInf && iv.LoOpen:
		return attr + " > " + fmtFloat(iv.Lo)
	case hiInf:
		return attr + " ≥ " + fmtFloat(iv.Lo)
	default:
		var sb strings.Builder
		sb.WriteString(fmtFloat(iv.Lo))
		if iv.LoOpen {
			sb.WriteString(" < ")
		} else {
			sb.WriteString(" ≤ ")
		}
		sb.WriteString(attr)
		if iv.HiOpen {
			sb.WriteString(" < ")
		} else {
			sb.WriteString(" ≤ ")
		}
		sb.WriteString(fmtFloat(iv.Hi))
		return sb.String()
	}
}

func fmtFloat(x float64) string {
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// IntervalSet is a union of disjoint, sorted intervals. Construct with
// NormalizeIntervals or through set operations; a nil IntervalSet is empty.
type IntervalSet []Interval

// NormalizeIntervals sorts the intervals and merges every overlapping or
// adjacent pair, returning a canonical disjoint representation.
func NormalizeIntervals(ivs []Interval) IntervalSet {
	live := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if !iv.IsEmpty() {
			live = append(live, iv)
		}
	}
	if len(live) == 0 {
		return nil
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].Lo != live[j].Lo {
			return live[i].Lo < live[j].Lo
		}
		// Closed lower bound first.
		return !live[i].LoOpen && live[j].LoOpen
	})
	out := IntervalSet{live[0]}
	for _, iv := range live[1:] {
		last := &out[len(out)-1]
		if last.overlapsOrTouches(iv) {
			*last = last.Hull(iv)
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// Contains reports whether x lies in any member interval.
func (s IntervalSet) Contains(x float64) bool {
	// Binary search over disjoint sorted intervals.
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		iv := s[mid]
		switch {
		case iv.Contains(x):
			return true
		case x < iv.Lo || (x == iv.Lo && iv.LoOpen):
			hi = mid
		default:
			lo = mid + 1
		}
	}
	return false
}

// IsEmpty reports whether the set contains no points.
func (s IntervalSet) IsEmpty() bool { return len(s) == 0 }

// Union returns the normalized union of the two sets. Both inputs are
// already canonical (sorted, disjoint, non-empty members), so the union is
// one linear merge — no re-sort — producing exactly what NormalizeIntervals
// over the concatenation would. Regrouping unions criteria constantly; this
// is one of its hot paths.
func (s IntervalSet) Union(t IntervalSet) IntervalSet {
	if len(s) == 0 {
		return t
	}
	if len(t) == 0 {
		return s
	}
	out := make(IntervalSet, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) || j < len(t) {
		var iv Interval
		// Pick the next interval in canonical order: smaller Lo first,
		// closed lower bound first on ties (NormalizeIntervals' comparator).
		switch {
		case i == len(s):
			iv, j = t[j], j+1
		case j == len(t):
			iv, i = s[i], i+1
		case t[j].Lo < s[i].Lo || (t[j].Lo == s[i].Lo && !t[j].LoOpen && s[i].LoOpen):
			iv, j = t[j], j+1
		default:
			iv, i = s[i], i+1
		}
		if n := len(out); n > 0 && out[n-1].overlapsOrTouches(iv) {
			out[n-1] = out[n-1].Hull(iv)
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// unionCount returns len(s.Union(t)) without materializing the union: the
// same linear merge, tracking only the running tail interval. Regrouping's
// closest-pair search scores every candidate pair by union size; this keeps
// the scoring allocation-free.
func (s IntervalSet) unionCount(t IntervalSet) int {
	if len(s) == 0 {
		return len(t)
	}
	if len(t) == 0 {
		return len(s)
	}
	count := 0
	var last Interval
	i, j := 0, 0
	for i < len(s) || j < len(t) {
		var iv Interval
		switch {
		case i == len(s):
			iv, j = t[j], j+1
		case j == len(t):
			iv, i = s[i], i+1
		case t[j].Lo < s[i].Lo || (t[j].Lo == s[i].Lo && !t[j].LoOpen && s[i].LoOpen):
			iv, j = t[j], j+1
		default:
			iv, i = s[i], i+1
		}
		if count > 0 && last.overlapsOrTouches(iv) {
			last = last.Hull(iv)
		} else {
			count++
			last = iv
		}
	}
	return count
}

// SubsetOf reports whether every point of s lies in t.
func (s IntervalSet) SubsetOf(t IntervalSet) bool {
	for _, iv := range s {
		ok := false
		for _, jv := range t {
			if iv.SubsetOf(jv) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Hull returns the single-interval hull of the whole set.
func (s IntervalSet) Hull() Interval {
	if len(s) == 0 {
		return Interval{Lo: 1, Hi: 0} // canonical empty
	}
	h := s[0]
	for _, iv := range s[1:] {
		h = h.Hull(iv)
	}
	return h
}

// Equal reports whether two normalized sets are identical.
func (s IntervalSet) Equal(t IntervalSet) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if !s[i].Equal(t[i]) {
			return false
		}
	}
	return true
}

// Render renders the set as a predicate over the named attribute, joining
// disjuncts with " ∨ ".
func (s IntervalSet) Render(attr string) string {
	if len(s) == 0 {
		return attr + " ∈ ∅"
	}
	parts := make([]string, len(s))
	for i, iv := range s {
		parts[i] = iv.Render(attr)
	}
	return strings.Join(parts, " ∨ ")
}
