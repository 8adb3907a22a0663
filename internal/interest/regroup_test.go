package interest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sameInputs reports whether two summaries are interchangeable as inputs to
// a further Merge: both match all, or neither does and they hold disjuncts of
// equal encodings in the same order.
func sameInputs(a, b *Summary) bool {
	return a.matchAll == b.matchAll && slices.Equal(a.AppendIdentities(nil), b.AppendIdentities(nil))
}

// regroupBytes feeds the regrouping fuzz target: the fuzzer's bytes first,
// then a fixed pseudo-random tail, so a short input still draws whole
// subscriptions.
type regroupBytes struct {
	data []byte
	pad  uint32
}

func (b *regroupBytes) next() int {
	if len(b.data) > 0 {
		v := b.data[0]
		b.data = b.data[1:]
		return int(v)
	}
	b.pad = b.pad*1664525 + 1013904223
	return int(b.pad >> 24)
}

var (
	regroupAttrs = []string{"a", "b", "c", "d"}
	regroupWords = func() []string {
		w := make([]string, 96)
		for i := range w {
			w[i] = fmt.Sprintf("w%02d", i)
		}
		return w
	}()
)

// criterion draws numeric points and bands, unions of up to 23 separated
// points (two of them pass MaxNumericDisjuncts), string sets of up to 80
// words (one alone may pass MaxStringDisjuncts), small string sets, bools and
// thresholds; the kind is drawn apart from the attribute, so one attribute
// meets itself across kinds.
func (b *regroupBytes) criterion() Criterion {
	switch b.next() % 8 {
	case 0:
		return EqInt(int64(b.next() % 8))
	case 1:
		lo := float64(b.next() % 32)
		return BetweenIncl(lo, lo+float64(b.next()%16))
	case 2:
		n, off, gap := b.next()%24, b.next()%32, 2+b.next()%3
		ivs := make([]Interval, n)
		for i := range ivs {
			ivs[i] = PointInterval(float64(off + i*gap))
		}
		return InIntervals(ivs...)
	case 3:
		n, off, step := b.next()%81, b.next(), 1+b.next()%5
		ws := make([]string, n)
		for i := range ws {
			ws[i] = regroupWords[(off+i*step)%len(regroupWords)]
		}
		return OneOf(ws...)
	case 4:
		ws := make([]string, 1+b.next()%3)
		for i := range ws {
			ws[i] = regroupWords[b.next()%8]
		}
		return OneOf(ws...)
	case 5:
		return IsBool(b.next()%2 == 0)
	case 6:
		return Gt(float64(b.next() % 32))
	default:
		return Lt(float64(b.next() % 32))
	}
}

// subscription draws one to three criteria, the match-all subscription, or
// one drawn before (a duplicate, or a disjunct an earlier one subsumes).
func (b *regroupBytes) subscription(pool *[]Subscription) Subscription {
	op := b.next()
	switch {
	case op >= 0xfc:
		return NewSubscription()
	case op >= 0xd0 && len(*pool) > 0:
		return (*pool)[b.next()%len(*pool)]
	}
	sub := NewSubscription()
	for n := 1 + op%3; n > 0; n-- {
		sub = sub.Where(regroupAttrs[b.next()%len(regroupAttrs)], b.criterion())
	}
	*pool = append(*pool, sub)
	return sub
}

// raw draws a summary as a decoder hands it over: any bound, and disjuncts
// never regrouped — more than the bound, empty ones, and now and then more
// than a fold keeps scores for.
func (b *regroupBytes) raw(pool *[]Subscription) *Summary {
	s := &Summary{maxSubs: b.next() % 13} // 0: the zero Summary's
	n, src := b.next()%16, b
	if n == 15 {
		// So many disjuncts would outlast the fuzzer's bytes: draw them
		// from a tail of their own.
		n, src = maxMemo+b.next()%8, &regroupBytes{pad: uint32(b.next())}
	}
	for ; n > 0; n-- {
		s.subs = append(s.subs, src.subscription(pool))
	}
	return s
}

// summary draws a Merge input: nil, match-all, raw, or regrouped by the
// reference at its own bound.
func (b *regroupBytes) summary(pool *[]Subscription) *Summary {
	switch b.next() % 8 {
	case 0:
		return nil
	case 1:
		return &Summary{matchAll: true, maxSubs: DefaultMaxDisjuncts}
	case 2:
		return b.raw(pool)
	default:
		s := NewSummaryWithBound(1 + b.next()%12)
		for n := b.next() % 12; n > 0; n-- {
			refAdd(s, b.subscription(pool))
		}
		return s
	}
}

// checkRegroupAgainstReference runs byte-chosen Adds, multi-input Merges and
// restarts from raw summaries through Summary and through the reference, and
// demands after every step the same disjuncts in the same order, the same
// identity and bound, and a score bound no greater than the score for every
// pair of the summary (and, at the end, every pair of subscriptions drawn).
func checkRegroupAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	b := &regroupBytes{data: data}
	bound := 1 + b.next()%12
	got, want := NewSummaryWithBound(bound), NewSummaryWithBound(bound)
	var pool []Subscription
	for step := 0; len(b.data) > 0; step++ {
		got.SetIdentity(7)
		want.SetIdentity(7)
		var what string
		switch b.next() % 4 {
		case 0, 1:
			sub := b.subscription(&pool)
			what = "Add(" + sub.String() + ")"
			got.Add(sub)
			refAdd(want, sub)
		case 2:
			ins := make([]*Summary, 1+b.next()%6)
			for i := range ins {
				ins[i] = b.summary(&pool)
			}
			what = fmt.Sprintf("Merge of %d summaries", len(ins))
			got.Merge(ins...)
			for _, in := range ins {
				refMerge(want, in)
			}
		default:
			raw := b.raw(&pool)
			what = fmt.Sprintf("restart from %d raw disjuncts at bound %d", len(raw.subs), raw.maxSubs)
			got, want = raw.Clone(), raw.Clone()
		}
		if !sameInputs(got, want) {
			t.Fatalf("step %d, %s:\n got %s\nwant %s", step, what, got, want)
		}
		if got.Identity() != want.Identity() || got.Bound() != want.Bound() {
			t.Fatalf("step %d, %s: identity %d bound %d, reference %d and %d",
				step, what, got.Identity(), got.Bound(), want.Identity(), want.Bound())
		}
		checkScoreBounds(t, got.subs)
	}
	checkScoreBounds(t, pool)
}

func checkScoreBounds(t *testing.T, subs []Subscription) {
	t.Helper()
	for i := range subs {
		for j := i + 1; j < len(subs); j++ {
			if lb, score := subs[i].hullScoreBound(subs[j]), subs[i].hullScore(subs[j]); lb > score {
				t.Fatalf("bound %d above score %d:\n%s\n%s", lb, score, subs[i], subs[j])
			}
		}
	}
}

// FuzzRegroupAgainstReference holds the memoised closest-pair search to the
// full rescan it replaced (regroup_reference_test.go), pick for pick.
func FuzzRegroupAgainstReference(f *testing.F) {
	f.Add([]byte{7, 0, 3, 0, 1, 2, 0x03, 40, 9, 1, 1, 0, 5, 1, 2, 3, 2, 4, 3, 3, 1})
	f.Add([]byte{0, 2, 5, 3, 4, 5, 6, 7, 0, 0xd0, 3, 1, 2, 2, 2, 2, 2, 2})
	f.Add([]byte{2, 3, 11, 15, 0, 1, 0xff, 2, 3, 3, 3})
	f.Add([]byte{11, 2, 5, 2, 9, 14, 0, 2, 0x03, 70, 3, 4, 1, 1, 0x03, 80, 50, 1})
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(regroupInput(rand.New(rand.NewSource(seed))))
	}
	f.Fuzz(checkRegroupAgainstReference)
}

func regroupInput(rng *rand.Rand) []byte {
	data := make([]byte, 64+rng.Intn(448))
	rng.Read(data)
	return data
}

// TestRegroupMatchesReference is the fuzz target's check over a fixed set of
// random inputs, so every test run holds the memo to the reference.
func TestRegroupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		data := regroupInput(rng)
		t.Run(fmt.Sprint(trial), func(t *testing.T) { checkRegroupAgainstReference(t, data) })
	}
}

func TestMergedUniqueCountLimit(t *testing.T) {
	words := func(from, to, step int) []string {
		var out []string
		for i := from; i < to; i += step {
			out = append(out, fmt.Sprintf("s%03d", i))
		}
		return out
	}
	tests := []struct {
		name  string
		a, b  []string
		limit int
		want  int
	}{
		{"both empty", nil, nil, 64, 0},
		{"one empty", nil, words(0, 3, 1), 64, 3},
		{"disjoint", words(0, 10, 2), words(1, 10, 2), 64, 10},
		{"identical", words(0, 5, 1), words(0, 5, 1), 64, 5},
		{"overlapping", words(0, 6, 1), words(3, 9, 1), 64, 9},
		{"64 at the boundary", words(0, 32, 1), words(32, 64, 1), 64, 64},
		{"65 past the boundary", words(0, 32, 1), words(32, 65, 1), 64, 65},
		{"identical at the cap", words(0, 64, 1), words(0, 64, 1), 64, 64},
		{"interleaved past the cap mid-walk", words(0, 128, 2), words(1, 128, 2), 64, 65},
		{"one side over the cap", words(0, 65, 1), nil, 64, 65},
		{"other side over the cap", words(0, 2, 1), words(0, 100, 1), 64, 65},
		{"small limit", words(0, 3, 1), words(3, 6, 1), 4, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := mergedUniqueCount(tt.a, tt.b, tt.limit)
			if got != tt.want {
				t.Errorf("mergedUniqueCount = %d, want %d", got, tt.want)
			}
			if merged := min(len(mergeSortedUnique(tt.a, tt.b)), tt.limit+1); got != merged {
				t.Errorf("mergedUniqueCount = %d, the merge says %d", got, merged)
			}
		})
	}
}

// zipfSubscriptions draws n topic-set subscriptions in the shape of the
// repository benchmark's Zipf fleets (bench/gen.go): 512 ranked topics with
// weight 1/k, truncated-Pareto topic counts (mean about 24, at most 256) at
// stratified quantiles, 80 % of draws from the ranking rotated for the
// node's top-level subtree, and every other node on the inverted ranking, as
// under subscription flux.
func zipfSubscriptions(n int) []Subscription {
	const topics, meanSubs, maxSubs, locality = 512, 24, 256, 0.8
	rng := rand.New(rand.NewSource(1))
	cum := make([]float64, topics)
	total := 0.0
	for k := range cum {
		total += 1 / float64(k+1)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	subs := make([]Subscription, n)
	for pos, i := range rng.Perm(n) {
		count := int(meanSubs / 3 * math.Pow(1-(float64(pos)+0.5)/float64(n), -1/1.5))
		count = min(max(count, 1), maxSubs)
		shift := i / (n / 4) * (topics / 4)
		picked := make(map[int]bool, count)
		for tries := 0; len(picked) < count && tries < 4*count+16; tries++ {
			rank := min(sort.SearchFloat64s(cum, rng.Float64()), topics-1)
			if rng.Float64() < locality {
				rank = (rank + shift) % topics
			}
			if pos%2 == 1 {
				rank = topics - 1 - rank
			}
			picked[rank] = true
		}
		for rank := 0; len(picked) < count; rank++ {
			picked[(rank+shift)%topics] = true
		}
		names := make([]string, 0, count)
		for rank := range picked {
			names = append(names, fmt.Sprintf("t%05d", rank))
		}
		subs[i] = NewSubscription().Where("topic", OneOf(names...))
	}
	return subs
}

// zipfLeaves is the leaf summaries of 64 Zipf subscribers, one per member.
func zipfLeaves() []*Summary {
	subs := zipfSubscriptions(64)
	leaves := make([]*Summary, len(subs))
	for i, sub := range subs {
		leaves[i] = Summarize(sub)
	}
	return leaves
}

// foldZipf regroups the leaves as a 4-ary tree, the way the tree folds a
// trie: every interior summary is one Merge of its four children's.
func foldZipf(leaves []*Summary, merge func(s *Summary, kids []*Summary)) *Summary {
	for len(leaves) > 1 {
		up := make([]*Summary, 0, len(leaves)/4)
		for i := 0; i < len(leaves); i += 4 {
			s := NewSummary()
			merge(s, leaves[i:i+4])
			up = append(up, s)
		}
		leaves = up
	}
	return leaves[0]
}

func mergeAll(s *Summary, kids []*Summary) { s.Merge(kids...) }

func refMergeAll(s *Summary, kids []*Summary) {
	for _, k := range kids {
		refMerge(s, k)
	}
}

// zipfFoldAllocs is what one foldZipf over zipfLeaves allocated before a fold
// kept its pair scores.
const zipfFoldAllocs = 212

// TestRegroupZipfFold: the 64-leaf Zipf fold regroups exactly as the
// reference does, level by level, and allocates no more than it did.
func TestRegroupZipfFold(t *testing.T) {
	leaves := zipfLeaves()
	for n := len(leaves); n >= 4; n /= 4 {
		if got, want := foldZipf(leaves[:n], mergeAll), foldZipf(leaves[:n], refMergeAll); !sameInputs(got, want) {
			t.Fatalf("%d leaves:\n got %s\nwant %s", n, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { foldZipf(leaves, mergeAll) }); allocs > zipfFoldAllocs {
		t.Errorf("the fold allocates %.0f times, %d before", allocs, zipfFoldAllocs)
	}
}

// BenchmarkRegroupZipfFold folds 64 Zipf topic-set subscriptions as a 4-ary
// depth-3 tree: 21 interior Merges of four children each.
func BenchmarkRegroupZipfFold(b *testing.B) {
	leaves := zipfLeaves()
	b.ReportAllocs()
	for b.Loop() {
		foldZipf(leaves, mergeAll)
	}
}
