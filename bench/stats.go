package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an ascending
// slice: the smallest value with at least p·n values at or below it. Zero for
// an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// median sorts a copy and returns the middle value (mean of the two middle
// values for an even count). Zero for an empty slice.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile of the
// values as a share of their median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method) — the
// spread the benchmark contract is judged by. Zero for fewer than two values.
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank, exclusive method
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// windowed groups samples into fixed windows by their timestamp and reduces
// each full window to one number; it returns the per-window values in window
// order. Windows are [start+k·width, start+(k+1)·width) for k < count;
// samples outside them are ignored. Reporting the median of these values
// keeps one stalled second (a collection, a noisy neighbour) from deciding a
// whole run's figure.
func windowed(count int, start, width int64, n int, at func(i int) int64, val func(i int) float64, reduce func(sorted []float64) float64) []float64 {
	buckets := make([][]float64, count)
	for i := 0; i < n; i++ {
		k := (at(i) - start) / width
		if at(i) < start || k >= int64(count) {
			continue
		}
		buckets[k] = append(buckets[k], val(i))
	}
	out := make([]float64, 0, count)
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Float64s(b)
		out = append(out, reduce(b))
	}
	return out
}

// span is one traced interval: a call into a layer's public surface.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1: none
	Seq    int32  `json:"seq"`    // event sequence number, -1: none or many
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int32  `json:"n,omitempty"` // messages carried (batch calls)
	// Nominal marks a span opened while a nominal phase ran.
	Nominal bool `json:"nominal,omitempty"`
}

// selfTime is a span's duration minus the part of its interval its child
// spans cover (overlapping children are not double-counted).
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return parent.End - parent.Start - covered
}

// subHistory is one node's subscriptions over the run: sets[k] is in force
// from times[k] (times[0] is the beginning of time).
type subHistory struct {
	times []int64
	sets  []topicSet
}

// at returns the index of the set in force at time t.
func (h *subHistory) at(t int64) int {
	return sort.Search(len(h.times), func(k int) bool { return h.times[k] > t }) - 1
}

// eligible reports whether the node is an eligible receiver of an event on
// topic due at time due: one subscription, matching the topic, was in force
// over the whole of [due-before, due+after]. A nil set matches everything.
func (h *subHistory) eligible(topic int, due, before, after int64) bool {
	k := h.at(due - before)
	if k < 0 {
		k = 0
	}
	if k+1 < len(h.times) && h.times[k+1] <= due+after {
		return false // the subscription changed inside the window
	}
	return h.sets[k] == nil || h.sets[k].has(topic)
}

// matchedWithin reports whether any subscription in force during
// [from, to] matches the topic — the test a delivery must pass.
func (h *subHistory) matchedWithin(topic int, from, to int64) bool {
	k := h.at(from)
	if k < 0 {
		k = 0
	}
	for ; k < len(h.times) && (k == 0 || h.times[k] <= to); k++ {
		if h.sets[k] == nil || h.sets[k].has(topic) {
			return true
		}
	}
	return false
}
