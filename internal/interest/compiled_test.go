package interest

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// does, and the probe counts one Eval per distinct non-nil line. It runs
// twice: with the index's keys, and with keys narrowed to 7 bits, where
// builds must refuse seeds for two strings on one key and probes must meet
// the key of a string other than the value — and still answer alike.
func TestIndexMatchesSummaryParity(t *testing.T) {
	t.Run("keys=64", func(t *testing.T) { checkIndexParity(t, rand.New(rand.NewSource(5)), 300, 25) })
	t.Run("keys=7", func(t *testing.T) {
		narrowKeys(t, 7)
		clashes, false0 := keyClashes.Load(), falseKeys.Load()
		checkIndexParity(t, rand.New(rand.NewSource(5)), 1000, 50)
		if n := keyClashes.Load() - clashes; n == 0 {
			t.Error("no build refused a seed: the narrowed keys never collided in a table")
		}
		if n := falseKeys.Load() - false0; n == 0 {
			t.Error("no probe met another string's key: the hit check never ran against a collision")
		}
		t.Logf("%d seeds refused, %d false key matches", keyClashes.Load()-clashes, falseKeys.Load()-false0)
	})
}

// narrowKeys narrows every index key to its low bits until the test ends,
// so that keys collide.
func narrowKeys(t testing.TB, bits uint) {
	prev := keyMask
	keyMask = 1<<bits - 1
	t.Cleanup(func() { keyMask = prev })
}

// checkIndexParity probes trials random views with events random events
// each.
func checkIndexParity(t *testing.T, rng *rand.Rand, trials, events int) {
	for trial := 0; trial < trials; trial++ {
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
		for k := 0; k < events; k++ {
			ev := randEvent(rng, uint64(trial*events+k))
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

// collisionWords is the string vocabulary of FuzzIndexParityUnderCollisions;
// events also carry "zz", which no criterion admits.
var collisionWords = []string{"a", "b", "c", "d", "e", "f", "g", "h"}

// FuzzIndexParityUnderCollisions holds the index to Summary.Matches with
// keys narrowed to 7 bits, so that string tables keep meeting collisions:
// byte-chosen views of 1–5 lines (nil, match-all, a duplicate language, or
// up to 40 raw disjuncts over three attributes, so up to four blocks) of
// string sets, wildcards, numeric and boolean criteria, probed by
// byte-chosen events.
func FuzzIndexParityUnderCollisions(f *testing.F) {
	narrowKeys(f, 7)
	f.Add([]byte{3, 4, 20, 0xff, 0x13, 0x07, 0xf0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 5, 39, 0xaa, 0x55, 0x81, 3, 9, 9, 9, 1, 2})
	rng := rand.New(rand.NewSource(7))
	for range 4 {
		data := make([]byte, 64+rng.Intn(448))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		attrs := []string{"b", "c", "e"} // sorted
		criterion := func() Criterion {
			switch next() % 5 {
			case 0:
				return Any()
			case 1:
				return Ge(float64(next() % 8))
			case 2:
				return IsBool(next()&1 == 0)
			default:
				var ws []string
				for m, i := next(), 0; m != 0; m, i = m>>1, i+1 {
					if m&1 != 0 {
						ws = append(ws, collisionWords[i])
					}
				}
				return OneOf(ws...)
			}
		}
		n := 1 + int(next()%5)
		sums, langs := make([]*Summary, n), make([]uint64, n)
		for i := range sums {
			switch k := next() % 6; {
			case k == 0:
				continue
			case k == 1:
				sums[i] = &Summary{matchAll: true}
			case k == 2 && i > 0:
				j := int(next()) % i
				sums[i], langs[i] = sums[j], langs[j]
				continue
			default:
				s := &Summary{maxSubs: DefaultMaxDisjuncts}
				for d := next() % 41; d > 0; d-- {
					var criteria []attrCriterion
					for _, a := range attrs {
						if next()&1 != 0 {
							criteria = append(criteria, attrCriterion{attr: a, crit: criterion()})
						}
					}
					s.subs = append(s.subs, withCriteria(criteria))
				}
				sums[i] = s
			}
			langs[i] = uint64(i + 1)
		}
		x := NewIndex(sums, langs)
		hits := make([]uint64, x.Blocks())
		for seq := uint64(1); len(data) > 0; seq++ {
			b := event.NewBuilder()
			for _, a := range attrs {
				switch v := next(); v % 5 {
				case 0: // absent
				case 1:
					b.Int(a, int64(v>>3%10))
				case 2:
					b.Bool(a, v&8 != 0)
				case 3:
					b.Set(a, event.Value{})
				default:
					b.Str(a, append(collisionWords, "zz")[v>>3%9])
				}
			}
			ev := b.Build(event.ID{Origin: "fuzz", Seq: seq})
			x.Probe(ev, hits, nil)
			for li, s := range sums {
				want := s.Matches(ev)
				if got := x.Hit(hits, li); got != want {
					t.Fatalf("line %d: probe %v, interpreted %v\nsummary: %s\nevent: %s", li, got, want, s, ev)
				}
				if got := x.Line(li).Matches(ev); got != want {
					t.Fatalf("line %d: handle %v, interpreted %v\nsummary: %s\nevent: %s", li, got, want, s, ev)
				}
			}
		}
	})
}

// TestSortByKeyOrders holds the radix sort to the order of keys: tables of
// every size up to past the insertion cut-off and a long one, with runs of
// one key and with keys narrowed to a byte.
func TestSortByKeyOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{0, 1, 2, 15, 16, 17, 33, 100, 257, 3000} {
		for _, mask := range []uint64{^uint64(0), 0xff, 0} {
			tab := make([]strEntry, size)
			for i := range tab {
				tab[i] = strEntry{key: rng.Uint64() & mask, bits: uint64(i)}
				if i > 0 && rng.Intn(3) == 0 {
					tab[i].key = tab[rng.Intn(i)].key
				}
			}
			want := slices.Clone(tab)
			slices.SortStableFunc(want, func(e, f strEntry) int { return cmp.Compare(e.key, f.key) })
			sortByKey(tab, make([]strEntry, size), 56)
			for i := range tab {
				if tab[i].key != want[i].key {
					t.Fatalf("size %d mask %#x: key %d is %#x, want %#x", size, mask, i, tab[i].key, want[i].key)
				}
			}
			slices.SortFunc(tab, func(e, f strEntry) int { return cmp.Compare(e.bits, f.bits) })
			for i := range tab {
				if tab[i].bits != uint64(i) {
					t.Fatalf("size %d mask %#x: the sort lost or doubled entry %d", size, mask, i)
				}
			}
		}
	}
}

// TestSearchFindsTheFirstKeyAtOrPast holds the string tables' search — a
// guess from the key's share of the key space, a short scan, then a
// binary search — to a plain scan: tables of every size, keys drawn evenly
// and narrowed to a byte (where every guess is wrong), present and absent.
func TestSearchFindsTheFirstKeyAtOrPast(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, size := range []int{1, 2, 9, 17, 100, 1000} {
		for _, mask := range []uint64{^uint64(0), 0xff << 16} {
			tab := make([]strEntry, size)
			for i := range tab {
				tab[i].key = rng.Uint64() & mask
			}
			slices.SortFunc(tab, func(e, f strEntry) int { return cmp.Compare(e.key, f.key) })
			for probe := 0; probe < 400; probe++ {
				k := rng.Uint64() & mask
				if probe%2 == 0 {
					k = tab[rng.Intn(size)].key
				}
				want := 0
				for want < size && tab[want].key < k {
					want++
				}
				if got := search(tab, k); got != want {
					t.Fatalf("size %d mask %#x: search(%#x) = %d, want %d", size, mask, k, got, want)
				}
			}
		}
	}
}

// TestIndexFootprintBudget holds the index to 16 bytes per admitted
// (string, block, attribute) entry on the shape of a million-subscription
// campaign's views: 48 leaf lines of ~300 Zipf-drawn topics each, and four
// regrouped lines of 8 disjuncts with up to 64 topics. The overhead the
// budget allows beside the entries is, per block, the block (32 B), and
// per attribute of it 256 B (a 128-byte record, twice for a grown slice)
// plus a 24-byte reference to each of its ≤ 64 string sets; per index, the
// Index (88 B) and 28 B per line. A map slot per string (~38 B) is more
// than twice the budget.
func TestIndexFootprintBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	zipf := rand.NewZipf(rng, 1.1, 1, 1999)
	topics := func(n int) []string {
		ws := make([]string, n)
		for i := range ws {
			ws[i] = fmt.Sprintf("topic-%04d", zipf.Uint64())
		}
		return ws
	}
	leaf := make([]*Summary, 48)
	for i := range leaf {
		leaf[i] = Summarize(NewSubscription().Where("topic", OneOf(topics(300)...)))
	}
	regrouped := make([]*Summary, 4)
	for i := range regrouped {
		s := &Summary{maxSubs: DefaultMaxDisjuncts}
		for range 8 {
			s.subs = append(s.subs, NewSubscription().Where("topic", OneOf(topics(1+rng.Intn(64))...)))
		}
		regrouped[i] = s
	}
	for _, view := range [][]*Summary{leaf, regrouped} {
		x := NewIndex(view, nil)
		entries, disjuncts, attrs := 0, 0, 0
		var block map[string]bool
		for _, s := range view {
			for _, sub := range s.subs {
				if disjuncts%64 == 0 {
					block = map[string]bool{}
					attrs++
				}
				disjuncts++
				for _, w := range sub.Criterion("topic").strs {
					if !block[w] {
						block[w] = true
						entries++
					}
				}
			}
		}
		blocks := (disjuncts + 63) / 64
		budget := 16*entries + blocks*32 + attrs*256 + disjuncts*24 + 88 + 28*len(view)
		got := x.footprint()
		t.Logf("%d lines, %d blocks, %d entries: %d bytes, %.1f per entry (budget %d)",
			len(view), blocks, entries, got, float64(got)/float64(entries), budget)
		if got > budget {
			t.Errorf("%d lines, %d entries: the index holds %d bytes, over its budget of %d", len(view), entries, got, budget)
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
