package harness

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync"

	"pmcast/internal/addr"
	"pmcast/internal/event"
	"pmcast/internal/interest"
)

// ZipfWorkload is the skewed subscription/publication model of the zipf*
// campaigns: a ranked topic vocabulary whose popularity follows a Zipf law
// (q_k ∝ 1/k^Alpha), heavy-tailed per-node subscription counts (a truncated
// Pareto — most nodes follow a few topics, a few follow thousands),
// correlated subscription locality in the tree (each top-level subtree
// rotates the popularity ranking, so siblings' interests overlap far more
// than strangers') and flash-crowd flux waves that invert the popularity
// ranks mid-run (yesterday's tail is today's head). Everything is a pure
// function of (Seed, node index, wave), so campaigns over it replay
// byte-identically.
type ZipfWorkload struct {
	// Topics is the vocabulary size; ranks run 0 (hottest) … Topics−1.
	Topics int
	// Alpha is the Zipf exponent; 1 is the classic harmonic profile.
	Alpha float64
	// MeanSubs and MaxSubs shape the per-node subscription-count draw: a
	// Pareto(β=1.5) with mean ≈ MeanSubs, truncated to [1, MaxSubs].
	MeanSubs float64
	MaxSubs  int
	// Locality is the probability a node's topic draw uses its top-level
	// subtree's rotated ranking instead of the global one (0 = no locality,
	// 1 = fully subtree-local popularity).
	Locality float64
	// Arity is the tree's top-level arity, the modulus of the locality
	// rotation.
	Arity int
	// Seed salts every deterministic draw.
	Seed int64

	// cum is the Zipf CDF over ranks, names the topic of every rank, and
	// guide[b] the first rank whose cumulative weight reaches b/G, G being
	// len(guide)−1, the least power of two ≥ Topics — all built once by
	// NewZipfWorkload.
	cum   []float64
	names []string
	guide []int32
}

// NewZipfWorkload precomputes the popularity CDF, its guide table and the
// topic names.
func NewZipfWorkload(w ZipfWorkload) *ZipfWorkload {
	if w.Topics < 1 {
		w.Topics = 1
	}
	w.cum = make([]float64, w.Topics)
	w.names = make([]string, w.Topics)
	width := max(5, len(fmt.Sprint(w.Topics-1)))
	total := 0.0
	for k := 0; k < w.Topics; k++ {
		total += 1 / math.Pow(float64(k+1), w.Alpha)
		w.cum[k] = total
		w.names[k] = fmt.Sprintf("t%0*d", width, k)
	}
	for k := range w.cum {
		w.cum[k] /= total
	}
	buckets := 1 << bits.Len(uint(w.Topics-1))
	w.guide = make([]int32, buckets+1)
	for b := range w.guide {
		w.guide[b] = int32(sort.SearchFloat64s(w.cum, float64(b)/float64(buckets)))
	}
	return &w
}

// rankFor maps a uniform u ∈ [0, 1) to a topic rank by inverting the CDF:
// the Zipf-weighted quantile, the first rank whose cumulative weight reaches
// u (clamped to the last rank). The guide table narrows the binary search to
// the ranks of u's bucket b = ⌊u·G⌋. G is a power of two, so u·G and b/G
// round nothing: b/G ≤ u < (b+1)/G holds exactly, the answer lies in
// [guide[b], guide[b+1]], and it is always sort.SearchFloat64s's.
func (w *ZipfWorkload) rankFor(u float64) int {
	lo, hi := 0, w.Topics
	if b := int(u * float64(len(w.guide)-1)); b >= 0 && b < len(w.guide)-1 {
		lo, hi = int(w.guide[b]), int(w.guide[b+1])
	}
	return min(lo+sort.SearchFloat64s(w.cum[lo:hi], u), w.Topics-1)
}

// topicName is one rank's topic. The rank is zero-padded to the width of
// the largest (five digits at least), so names sort lexically in rank order,
// which makes reports and traces legible.
func (w *ZipfWorkload) topicName(rank int) string { return w.names[rank] }

// countFor draws the node's subscription count: Pareto(x_m, β=1.5) — mean
// β·x_m/(β−1) = 3·x_m ≈ MeanSubs — truncated to [1, MaxSubs]. The tail
// matters: the handful of high-degree nodes dominate the fold inputs.
func (w *ZipfWorkload) countFor(rng *rand.Rand) int {
	xm := w.MeanSubs / 3
	if xm < 1 {
		xm = 1
	}
	c := int(xm * math.Pow(1-rng.Float64(), -1/1.5))
	if c < 1 {
		c = 1
	}
	if w.MaxSubs > 0 && c > w.MaxSubs {
		c = w.MaxSubs
	}
	if c > w.Topics {
		c = w.Topics
	}
	return c
}

// rotate maps a rank into subtree g's local popularity order: each top-level
// subtree shifts the ranking by a g-proportional stride, so the subtrees'
// hot sets are disjoint slices of the vocabulary and sibling summaries stay
// tight — the correlated-locality regime hierarchical regrouping is built
// for.
func (w *ZipfWorkload) rotate(rank, g int) int {
	if w.Arity <= 1 {
		return rank
	}
	return (rank + g*(w.Topics/w.Arity)) % w.Topics
}

// drawScratch is what one topicsFor call works in: a generator re-seeded
// per call and a bitset over ranks, which the call leaves clear.
type drawScratch struct {
	rng    *rand.Rand
	picked []uint64
}

// drawPool hands each goroutine drawing subscriptions its own scratch.
var drawPool = sync.Pool{New: func() any {
	return &drawScratch{rng: rand.New(rand.NewSource(0))}
}}

// topicsFor draws one node's topic set for one flux wave, deterministically
// from (Seed, index, wave): Zipf-weighted sampling without replacement, with
// the node's top-level subtree rotating the ranking for the Locality
// fraction of draws, and odd waves inverting the popularity ranks (the
// flash-crowd flip: rank k becomes rank Topics−1−k). Waves re-seed the RNG,
// so a wave's draw does not depend on how many waves preceded it. The names
// come back in rank order, which is also their lexical order. Safe for
// concurrent use.
func (w *ZipfWorkload) topicsFor(index int, group int, wave int64) []string {
	sc := drawPool.Get().(*drawScratch)
	defer drawPool.Put(sc)
	// Re-seeding yields the stream a fresh rand.NewSource of the same seed
	// would, without allocating one.
	rng := sc.rng
	rng.Seed(int64(index)*0x9e3779b9 + wave*0x85ebca6b + w.Seed*0xc2b2ae35 + 1)
	words := (w.Topics + 63) / 64
	if len(sc.picked) < words {
		sc.picked = make([]uint64, words)
	}
	picked := sc.picked[:words]
	count := w.countFor(rng)
	n := 0
	add := func(rank int) {
		if bit := uint64(1) << (rank % 64); picked[rank/64]&bit == 0 {
			picked[rank/64] |= bit
			n++
		}
	}
	// Rejection-sample the Zipf draw; a bounded number of retries keeps the
	// draw cheap when count approaches Topics, and the linear fill below
	// guarantees the count regardless.
	for tries := 0; n < count && tries < 4*count+16; tries++ {
		rank := w.rankFor(rng.Float64())
		if rng.Float64() < w.Locality {
			rank = w.rotate(rank, group)
		}
		if wave%2 == 1 {
			rank = w.Topics - 1 - rank
		}
		add(rank)
	}
	for rank := 0; n < count && rank < w.Topics; rank++ {
		add(w.rotate(rank, group))
	}
	names := make([]string, 0, n)
	for i, word := range picked {
		for ; word != 0; word &= word - 1 {
			names = append(names, w.topicName(i*64+bits.TrailingZeros64(word)))
		}
	}
	clear(picked)
	return names
}

// SubscriptionFor is the Scenario.SubscriptionFor hook: the node's wave-0
// topic set as a single OneOf criterion on the "topic" attribute.
func (w *ZipfWorkload) SubscriptionFor(a addr.Address, index int) interest.Subscription {
	return interest.NewSubscription().
		Where("topic", interest.OneOf(w.topicsFor(index, a.Digit(1), 0)...))
}

// FluxFor is the Scenario.FluxFor hook: a flash-crowd redraw. The drawn
// class provides the wave salt — successive waves with different classes
// draw different sets — and odd waves invert the popularity ranking.
func (w *ZipfWorkload) FluxFor(a addr.Address, index int, class int64) interest.Subscription {
	return interest.NewSubscription().
		Where("topic", interest.OneOf(w.topicsFor(index, a.Digit(1), 1+class)...))
}

// EventFor is the Scenario.EventFor hook. The engine draws class uniformly
// in [0, Classes); mapping it through the Zipf quantile turns that uniform
// draw into a Zipf-distributed topic — publications follow the same
// popularity law subscriptions do, so head topics carry most of the
// traffic.
func (w *ZipfWorkload) EventFor(class int64, rng *rand.Rand) map[string]event.Value {
	u := (float64(class) + 0.5) / float64(w.Topics)
	return map[string]event.Value{
		"topic": event.Str(w.topicName(w.rankFor(u))),
	}
}

// ClassBucketOf groups classes into log₂ popularity bands of the published
// rank: bucket 0 is rank 0, bucket 1 ranks 1–2, bucket 2 ranks 3–6, … — the
// head-to-tail axis of the report's class_reliability breakdown. The rank
// is below Topics, so the bucket never exceeds bits.Len(Topics)−1.
func (w *ZipfWorkload) ClassBucketOf(class int64) int {
	u := (float64(class) + 0.5) / float64(w.Topics)
	return bits.Len(uint(w.rankFor(u)+1)) - 1
}
