// Benchmarks and acceptance tests of the compiled interest-matching engine
// (PR 5): compiled matchers versus the interpretive oracle, and the
// per-event susceptibility cache versus the naive re-walking path, both on
// the soak256 workload shape (the 4^4 fleet with class-clustered interests
// the sustained-throughput campaigns run).
package pmcast_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/interest"
	"pmcast/internal/tree"
)

// soak256Tree builds the soak256-shaped membership: the regular 4^4 tree
// with interests clustered by top-level subtree (b == digit(1) mod 4).
func soak256Tree(tb testing.TB) (*tree.Tree, addr.Space) {
	tb.Helper()
	space := addr.MustRegular(4, 4)
	members := make([]tree.Member, 0, 256)
	for i := 0; i < 256; i++ {
		a := space.AddressAt(i)
		members = append(members, tree.Member{
			Addr: a,
			Sub:  interest.NewSubscription().Where("b", interest.EqInt(int64(a.Digit(1)%4))),
		})
	}
	t, err := tree.Build(tree.Config{Space: space, R: 2}, members)
	if err != nil {
		tb.Fatal(err)
	}
	return t, space
}

func classEvent(class int64, seq uint64) event.Event {
	return event.NewBuilder().Int("b", class).
		Build(event.ID{Origin: "bench", Seq: seq})
}

// manyAttrMatcher builds one high-cardinality subscription (multi-point
// numeric set, string set, float band) and a probe event for it.
func manyAttrMatcher() (interest.Subscription, event.Event) {
	ivs := make([]interest.Interval, 0, 16)
	for k := 0; k < 16; k++ {
		ivs = append(ivs, interest.PointInterval(float64(k*4)))
	}
	sub := interest.NewSubscription().
		Where("b", interest.InIntervals(ivs...)).
		Where("e", interest.OneOf("t00", "t07", "t12", "t19", "t21", "t25", "t28", "t31")).
		Where("c", interest.Between(100, 600))
	ev := event.NewBuilder().Int("b", 28).Str("e", "t19").Float("c", 155.5).
		Build(event.ID{Origin: "bench", Seq: 1})
	return sub, ev
}

// BenchmarkMatchCompiled measures one compiled high-cardinality match
// against the interpretive oracle on the same subscription, and pins the
// compiled path's allocation contract: matching allocates nothing.
func BenchmarkMatchCompiled(b *testing.B) {
	sub, hit := manyAttrMatcher()
	miss := event.NewBuilder().Int("b", 3).Str("e", "t02").Float("c", 155.5).
		Build(event.ID{Origin: "bench", Seq: 2})
	cm := interest.Compile(sub)
	for _, ev := range []event.Event{hit, miss} {
		if cm.Matches(ev) != sub.Matches(ev) {
			b.Fatalf("compiled and naive disagree on %s", ev)
		}
		if allocs := testing.AllocsPerRun(100, func() { cm.Matches(ev) }); allocs != 0 {
			b.Fatalf("compiled match allocates (%v allocs/op); matching must be 0-alloc", allocs)
		}
	}
	evs := []event.Event{hit, miss}
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cm.Matches(evs[i%2])
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sub.Matches(evs[i%2])
		}
	})
}

// BenchmarkRateCached measures GETRATE through the susceptibility cache on
// the soak256 workload: steady-state (cache-hit) rate queries against a
// live Process — for events buffered at the depth asked about, whose entries
// hold the profile — which must be allocation-free, versus the naive
// per-member summary walk the pre-engine runtime ran on every query.
func BenchmarkRateCached(b *testing.B) {
	t, space := soak256Tree(b)
	self := space.AddressAt(0)
	proc, err := core.BuildProcess(t, self, core.Config{F: 4, C: 3})
	if err != nil {
		b.Fatal(err)
	}
	// One buffered event per (class, depth); the first query computes its
	// profile and warms the entry.
	depthOf := func(i int) int { return 1 + i%t.Depth() }
	evs := make([]event.Event, 4*t.Depth())
	for i := range evs {
		evs[i] = classEvent(int64(i/t.Depth()), uint64(i+1))
		proc.Receive(core.Gossip{Event: evs[i], Depth: depthOf(i), Rate: 1})
		if proc.ProfileFor(evs[i], depthOf(i)) == nil {
			b.Fatalf("no view at depth %d", depthOf(i))
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i, ev := range evs {
			proc.ProfileFor(ev, depthOf(i))
		}
	}); allocs != 0 {
		b.Fatalf("steady-state cached rate allocates (%v allocs/op); must be 0-alloc", allocs)
	}
	views := make([]*tree.View, t.Depth())
	for depth := 1; depth <= t.Depth(); depth++ {
		views[depth-1] = t.ViewAt(self, depth)
	}
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % len(evs)
			_ = proc.ProfileFor(evs[j], depthOf(j)).Rate
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev := evs[i%len(evs)]
			v := views[i%t.Depth()]
			_ = v.MatchingRate(ev) // the interpretive per-line walk
		}
	})
}

// naiveView adapts a tree.View to core.DepthView through the interpretive
// Summary path with no compiled matchers, and defeats the susceptibility
// cache by reporting a fresh generation on every query — reconstructing
// exactly the pre-engine cost model (every query re-walks the summaries,
// every round re-pays matching). Its comparison counter tallies what the
// naive path spends.
type naiveView struct {
	members []addr.Address
	lineOf  []int
	lines   []tree.Line
	selfIdx int
	selfLn  int
	gen     uint64
	counter *interest.MatchCounter
}

func newNaiveView(v *tree.View, self addr.Address, counter *interest.MatchCounter) *naiveView {
	if v == nil {
		return nil
	}
	nv := &naiveView{selfIdx: -1, selfLn: -1, lines: v.Lines, counter: counter}
	for li, line := range v.Lines {
		for _, m := range line.Delegates {
			if m.Equal(self) {
				nv.selfIdx = len(nv.members)
				nv.selfLn = li
			}
			nv.members = append(nv.members, m)
			nv.lineOf = append(nv.lineOf, li)
		}
	}
	if nv.selfLn < 0 {
		depthDigit := v.Prefix.Len() + 1
		if depthDigit <= self.Depth() {
			for li, line := range v.Lines {
				if line.Infix == self.Digit(depthDigit) {
					nv.selfLn = li
					break
				}
			}
		}
	}
	return nv
}

func (nv *naiveView) matchLine(ev event.Event, li int) bool {
	return nv.lines[li].Summary.MatchesCounted(ev, nv.counter)
}

func (nv *naiveView) Size() int                   { return len(nv.members) }
func (nv *naiveView) MemberAt(i int) addr.Address { return nv.members[i] }
func (nv *naiveView) SelfIndex() int              { return nv.selfIdx }

// Profile implements core.DepthView the way the pre-engine runtime asked its
// three questions: susceptibility member by member, then GETRATE over the
// members again, then the matching subgroups line by line — every answer an
// interpretive walk of the line's summary.
func (nv *naiveView) Profile(ev event.Event, p *core.MatchProfile) {
	p.Ensure(len(nv.members))
	for i, li := range nv.lineOf {
		if nv.matchLine(ev, li) {
			p.Set(i)
			p.Hits++
		}
	}
	hits := 0
	for _, li := range nv.lineOf {
		if nv.matchLine(ev, li) {
			hits++
		}
	}
	if len(nv.members) > 0 {
		p.Rate = float64(hits) / float64(len(nv.members))
	}
	for li := range nv.lines {
		if nv.matchLine(ev, li) {
			p.Lines++
			p.SelfIn = p.SelfIn || li == nv.selfLn
		}
	}
}

// Generation implements core.DepthView with a fresh value per query, so the
// Process-level cache can never serve a hit: every profile is recomputed,
// like the pre-engine runtime.
func (nv *naiveView) Generation() uint64 {
	nv.gen++
	return nv.gen
}

// TestRateCachedComparisonReduction is the matching-engine acceptance
// criterion: on the soak256 workload, a full dissemination driven through
// the cached compiled path performs at least 5× fewer attribute comparisons
// per gossip round than the identical dissemination driven through the
// naive re-walking path — while emitting the identical send sequence.
func TestRateCachedComparisonReduction(t *testing.T) {
	tr, space := soak256Tree(t)
	self := space.AddressAt(0)
	cfg := core.Config{F: 4, C: 3}

	cached, err := core.BuildProcess(tr, self, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var naiveCost interest.MatchCounter
	nviews := make([]core.DepthView, tr.Depth())
	for depth := 1; depth <= tr.Depth(); depth++ {
		if nv := newNaiveView(tr.ViewAt(self, depth), self, &naiveCost); nv != nil {
			nviews[depth-1] = nv
		}
	}
	m, _ := tr.Member(self)
	ncfg := cfg
	ncfg.D = tr.Depth()
	naive, err := core.NewProcess(self, ncfg, nviews, m.Sub.Matches)
	if err != nil {
		t.Fatal(err)
	}

	// Identical workload, identical RNG: a four-class burst disseminating to
	// quiescence, the per-round shape of the soak campaigns.
	run := func(p *core.Process, seed int64) (sends []string, rounds int) {
		rng := rand.New(rand.NewSource(seed))
		for class := int64(0); class < 4; class++ {
			if err := p.Multicast(classEvent(class, uint64(class+1))); err != nil {
				t.Fatal(err)
			}
		}
		for p.Pending() > 0 {
			rounds++
			if rounds > 256 {
				t.Fatal("dissemination did not quiesce")
			}
			for _, s := range p.Tick(rng) {
				sends = append(sends, fmt.Sprintf("%s|%s#%d@%d", s.To, s.Gossip.Event.ID().Origin, s.Gossip.Event.ID().Seq, s.Gossip.Depth))
			}
		}
		return sends, rounds
	}

	cachedSends, cachedRounds := run(cached, 99)
	naiveSends, naiveRounds := run(naive, 99)
	if cachedRounds != naiveRounds || len(cachedSends) != len(naiveSends) {
		t.Fatalf("paths diverged: %d/%d rounds, %d/%d sends", cachedRounds, naiveRounds, len(cachedSends), len(naiveSends))
	}
	for i := range cachedSends {
		if cachedSends[i] != naiveSends[i] {
			t.Fatalf("send %d diverged: cached %s, naive %s", i, cachedSends[i], naiveSends[i])
		}
	}

	cachedCmp := cached.MatchStats().Comparisons
	naiveCmp := naiveCost.Comparisons
	cachedPerRound := float64(cachedCmp) / float64(cachedRounds)
	naivePerRound := float64(naiveCmp) / float64(naiveRounds)
	t.Logf("attribute comparisons/round: cached %.1f vs naive %.1f (%.1fx reduction over %d rounds)",
		cachedPerRound, naivePerRound, naivePerRound/cachedPerRound, cachedRounds)
	if naivePerRound < 5*cachedPerRound {
		t.Errorf("cached path must do ≥5x fewer comparisons/round: cached %.1f, naive %.1f",
			cachedPerRound, naivePerRound)
	}
}
