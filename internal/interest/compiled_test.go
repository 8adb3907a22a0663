package interest

import (
	"math"
	"math/rand"
	"testing"

	"pmcast/internal/event"
)

// randCriterion draws one criterion spanning every construction path the
// compiler indexes: point and band intervals (open/closed/infinite bounds),
// multi-interval unions, the empty interval set, string sets (including the
// empty one), booleans and the wildcard.
func randCriterion(rng *rand.Rand) Criterion {
	switch rng.Intn(10) {
	case 0:
		return EqInt(int64(rng.Intn(8)))
	case 1:
		return Gt(float64(rng.Intn(100)))
	case 2:
		return Le(float64(rng.Intn(100)))
	case 3:
		// Arbitrary open/closed band, boundaries included in event draws.
		lo := float64(rng.Intn(50))
		hi := lo + float64(rng.Intn(50))
		return InIntervals(Interval{Lo: lo, Hi: hi, LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0})
	case 4:
		// Multi-interval union, possibly with adjacent/overlapping members.
		n := 1 + rng.Intn(4)
		ivs := make([]Interval, n)
		for i := range ivs {
			lo := float64(rng.Intn(60))
			ivs[i] = Interval{Lo: lo, Hi: lo + float64(rng.Intn(20)), LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0}
		}
		return InIntervals(ivs...)
	case 5:
		return InIntervals() // empty IntervalSet: matches nothing
	case 6:
		words := []string{"a", "b", "c", "d", "e"}
		n := rng.Intn(4)
		picked := make([]string, 0, n)
		for i := 0; i < n; i++ {
			picked = append(picked, words[rng.Intn(len(words))])
		}
		return OneOf(picked...) // n=0: empty string set, matches nothing
	case 7:
		return IsBool(rng.Intn(2) == 0)
	case 8:
		return Any()
	default:
		return BetweenIncl(float64(rng.Intn(40)), float64(rng.Intn(80)))
	}
}

// attrNames is the shared attribute vocabulary: events and subscriptions
// overlap partially, so missing-attribute and wrong-domain paths are hit.
var attrNames = []string{"b", "c", "e", "z", "w"}

func randSubscription(rng *rand.Rand) Subscription {
	sub := NewSubscription()
	for _, attr := range attrNames {
		if rng.Intn(3) == 0 {
			sub = sub.Where(attr, randCriterion(rng))
		}
	}
	return sub
}

func randEvent(rng *rand.Rand, seq uint64) event.Event {
	b := event.NewBuilder()
	for _, attr := range attrNames {
		switch rng.Intn(7) {
		case 0:
			// Absent attribute.
		case 6:
			b.Set(attr, event.Value{}) // satisfies no criterion, the wildcard included
		case 1:
			b.Int(attr, int64(rng.Intn(110)))
		case 2:
			// Boundary-heavy draws: integers land exactly on interval
			// endpoints, probing open/closed semantics.
			b.Float(attr, float64(rng.Intn(110)))
		case 3:
			b.Float(attr, rng.Float64()*110)
		case 4:
			b.Str(attr, []string{"a", "b", "c", "d", "e", "zz"}[rng.Intn(6)])
		default:
			b.Bool(attr, rng.Intn(2) == 0)
		}
	}
	return b.Build(event.ID{Origin: "prop", Seq: seq})
}

// TestCompiledMatchesSubscriptionParity is the index's oracle property for
// one subscription: for randomized subscriptions × events — zero-criterion
// (match-all) subscriptions, empty interval sets, empty string sets,
// boundary open/closed intervals, missing attributes, cross-domain values —
// Compile(sub).Matches ≡ sub.Matches, decision for decision. Run it under
// -race along with the rest of the suite; indexes are shared immutable
// state by design.
func TestCompiledMatchesSubscriptionParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		sub := randSubscription(rng)
		cm := Compile(sub)
		for k := 0; k < 25; k++ {
			ev := randEvent(rng, uint64(trial*25+k))
			if got, want := cm.Matches(ev), sub.Matches(ev); got != want {
				t.Fatalf("trial %d: compiled=%v naive=%v\nsub: %s\nevent: %s", trial, got, want, sub, ev)
			}
		}
	}
}

// TestCompiledMatchesSummaryParity extends the oracle property to regrouped
// summaries: randomized disjunction sets (driven through Add's absorption
// and compaction) compile to matchers that agree with Summary.Matches on
// every probe.
func TestCompiledMatchesSummaryParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 400; trial++ {
		s := NewSummaryWithBound(1 + rng.Intn(4))
		for i, n := 0, rng.Intn(10); i < n; i++ {
			s.Add(randSubscription(rng))
		}
		cm := CompileSummary(s)
		for k := 0; k < 25; k++ {
			ev := randEvent(rng, uint64(trial*25+k))
			want := s.Matches(ev)
			if got := cm.Matches(ev); got != want {
				t.Fatalf("trial %d: compiled=%v naive=%v\nsummary: %s\nevent: %s", trial, got, want, s, ev)
			}
		}
	}
}

// rawSubscription draws a subscription past Where, as no public constructor
// builds one: its criteria may hold the wildcard, which Where drops.
func rawSubscription(rng *rand.Rand) Subscription {
	var criteria []attrCriterion
	for _, attr := range []string{"b", "c", "e", "w", "z"} { // sorted
		if rng.Intn(3) == 0 {
			criteria = append(criteria, attrCriterion{attr: attr, crit: randCriterion(rng)})
		}
	}
	return withCriteria(criteria)
}

// TestIndexMatchesSummaryParity extends the oracle property to views: 1–6
// lines of summaries — regrouped, or raw as the wire or a bug could hand
// them over, with wildcard criteria and past 64 disjuncts — duplicates
// sharing a language name, match-all, empty and nil lines. One probe of the
// index, and each line's handle, must answer every line as Summary.Matches
// does, and the probe counts one Eval per distinct non-nil line.
func TestIndexMatchesSummaryParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(6)
		sums, langs := make([]*Summary, n), make([]uint64, n)
		var evals uint64
		for i := range sums {
			switch k := rng.Intn(8); {
			case k == 0 && i > 0:
				j := rng.Intn(i)
				sums[i], langs[i] = sums[j].Clone(), langs[j]
				continue
			case k == 1:
				continue // a nil line
			case k == 2:
				sums[i] = &Summary{matchAll: rng.Intn(2) == 0}
			case k == 3:
				s := &Summary{maxSubs: DefaultMaxDisjuncts}
				for d := rng.Intn(80); d > 0; d-- {
					s.subs = append(s.subs, rawSubscription(rng))
				}
				sums[i] = s
			default:
				s := NewSummaryWithBound(1 + rng.Intn(8))
				for d := rng.Intn(10); d > 0; d-- {
					s.Add(randSubscription(rng))
				}
				sums[i] = s
			}
			langs[i] = uint64(i + 1)
			evals++
		}
		x := NewIndex(sums, langs)
		hits := make([]uint64, x.Blocks())
		for k := 0; k < 25; k++ {
			ev := randEvent(rng, uint64(trial*25+k))
			var mc MatchCounter
			x.Probe(ev, hits, &mc)
			if mc.Evals != evals {
				t.Fatalf("trial %d: a probe answered %d languages, want %d", trial, mc.Evals, evals)
			}
			for li, s := range sums {
				want := s.Matches(ev)
				if got := x.Hit(hits, li); got != want {
					t.Fatalf("trial %d line %d: probe %v, interpreted %v\nsummary: %s\nevent: %s", trial, li, got, want, s, ev)
				}
				if got := x.Line(li).Matches(ev); got != want {
					t.Fatalf("trial %d line %d: handle %v, interpreted %v\nsummary: %s\nevent: %s", trial, li, got, want, s, ev)
				}
			}
		}
	}
}

// TestHullCostMatchesMaterializedHull pins the allocation-free closest-pair
// scoring to its materializing definition: for random subscription pairs,
// hullCostWith must return exactly the dropped-attribute count and size of
// the hull HullWith builds.
func TestHullCostMatchesMaterializedHull(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 3000; trial++ {
		s, u := randSubscription(rng), randSubscription(rng)
		h := s.HullWith(u)
		wantDropped := len(s.Attrs()) + len(u.Attrs()) - 2*len(h.Attrs())
		wantSize := h.Size()
		dropped, size := s.hullCostWith(u)
		if dropped != wantDropped || size != wantSize {
			t.Fatalf("trial %d: cost (%d,%d), hull says (%d,%d)\ns: %s\nu: %s\nhull: %s",
				trial, dropped, size, wantDropped, wantSize, s, u, h)
		}
	}
}

// TestIntervalSetUnionMergeParity pins the linear-merge Union (and its
// counting twin) to the sort-based normalization it replaced.
func TestIntervalSetUnionMergeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	randSet := func() IntervalSet {
		n := rng.Intn(5)
		ivs := make([]Interval, n)
		for i := range ivs {
			lo := float64(rng.Intn(40))
			ivs[i] = Interval{Lo: lo, Hi: lo + float64(rng.Intn(15)), LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0}
		}
		return NormalizeIntervals(ivs)
	}
	for trial := 0; trial < 5000; trial++ {
		s, u := randSet(), randSet()
		got := s.Union(u)
		all := make([]Interval, 0, len(s)+len(u))
		all = append(all, s...)
		all = append(all, u...)
		want := NormalizeIntervals(all)
		if !got.Equal(want) {
			t.Fatalf("trial %d: merge union %v, normalized %v (s=%v u=%v)", trial, got, want, s, u)
		}
		if n := s.unionCount(u); n != len(want) {
			t.Fatalf("trial %d: unionCount %d, union has %d", trial, n, len(want))
		}
	}
}

// TestConstrainRejectsZeroCriterion is the early-validation contract: the
// zero Criterion errors at construction instead of silently building a
// subscription nobody asked for, and Where panics on it.
func TestConstrainRejectsZeroCriterion(t *testing.T) {
	var zero Criterion
	if _, err := NewSubscription().Constrain("b", zero); err == nil {
		t.Fatal("Constrain accepted the zero Criterion")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Where did not panic on the zero Criterion")
		}
	}()
	NewSubscription().Where("b", zero)
}

// TestConstrainValidCriteria: every constructed criterion — including the
// unsatisfiable empty ones and the wildcard — passes validation.
func TestConstrainValidCriteria(t *testing.T) {
	for _, c := range []Criterion{Any(), EqInt(1), InIntervals(), OneOf(), IsBool(true),
		Between(1, 2), Ge(math.Inf(-1))} {
		if _, err := NewSubscription().Constrain("x", c); err != nil {
			t.Errorf("Constrain rejected a constructed criterion %v: %v", c, err)
		}
	}
}

// TestNaNSatisfiesNoNumericCriterion: NaN compares false with every number,
// so neither an event attribute nor a criterion bound that is NaN may let a
// numeric criterion through. Both matchers — the interpretive one and the
// index, on a subscription and on its summary — must refuse every pair. The
// wildcard still admits a NaN value: it asks only that the attribute be set.
func TestNaNSatisfiesNoNumericCriterion(t *testing.T) {
	nan := math.NaN()
	build := func(x float64) event.Event {
		return event.NewBuilder().Float("price", x).Build(event.ID{Origin: "nan", Seq: 1})
	}
	cases := []struct {
		name string
		crit Criterion
		x    float64
	}{
		{"nan > 100", Gt(100), nan},
		{"nan < 0", Lt(0), nan},
		{"nan = 5", EqFloat(5), nan},
		{"nan in [1, 2]", BetweenIncl(1, 2), nan},
		{"nan in all reals", InIntervals(FullInterval()), nan},
		{"nan in [-inf, +inf]", BetweenIncl(math.Inf(-1), math.Inf(1)), nan},
		{"50 = nan", EqFloat(nan), 50},
		{"50 > nan", Gt(nan), 50},
		{"50 <= nan", Le(nan), 50},
		{"50 in (nan, 100)", Between(nan, 100), 50},
		{"50 in [0, nan]", BetweenIncl(0, nan), 50},
		{"50 in {nan}", Eq(event.Float(nan)), 50},
		{"nan = nan", EqFloat(nan), nan},
		{"nan in [nan, nan]", InIntervals(Interval{Lo: nan, Hi: nan}), nan},
	}
	for _, tc := range cases {
		ev := build(tc.x)
		sub := NewSubscription().Where("price", tc.crit)
		sum := Summarize(sub)
		if tc.crit.Matches(event.Float(tc.x)) {
			t.Errorf("%s: criterion matches", tc.name)
		}
		if sub.Matches(ev) || Compile(sub).Matches(ev) {
			t.Errorf("%s: subscription matches (interpretive %v, index %v)", tc.name, sub.Matches(ev), Compile(sub).Matches(ev))
		}
		if sum.Matches(ev) || CompileSummary(sum).Matches(ev) {
			t.Errorf("%s: summary matches (interpretive %v, index %v)", tc.name, sum.Matches(ev), CompileSummary(sum).Matches(ev))
		}
		if math.IsNaN(tc.x) {
			continue
		}
		if !tc.crit.IsEmpty() {
			t.Errorf("%s: a criterion with a NaN bound is not empty", tc.name)
		}
	}
	wild := NewSubscription().Where("price", Any())
	if ev := build(nan); !wild.Matches(ev) || !Compile(wild).Matches(ev) {
		t.Error("the wildcard refuses a NaN value")
	}
}
