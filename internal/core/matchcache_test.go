package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pmcast/internal/addr"
	"pmcast/internal/event"
	"pmcast/internal/interest"
	"pmcast/internal/tree"
)

// cacheTree builds a small content-addressed membership: 4^2, classes on b.
func cacheTree(tb testing.TB) (*tree.Tree, addr.Space) {
	tb.Helper()
	space := addr.MustRegular(4, 2)
	members := make([]tree.Member, 0, 16)
	for i := 0; i < 16; i++ {
		a := space.AddressAt(i)
		members = append(members, tree.Member{
			Addr: a,
			Sub:  interest.NewSubscription().Where("b", interest.EqInt(int64(a.Digit(1)%2))),
		})
	}
	t, err := tree.Build(tree.Config{Space: space, R: 2}, members)
	if err != nil {
		tb.Fatal(err)
	}
	return t, space
}

func classEv(class int64, seq uint64) event.Event {
	return event.NewBuilder().Int("b", class).Build(event.ID{Origin: "t", Seq: seq})
}

// TestProfileCacheMemoizes: a buffered event's second identical query is a
// cache hit and performs zero additional matcher evaluations; an event that
// is not buffered at the depth is evaluated and not kept.
func TestProfileCacheMemoizes(t *testing.T) {
	tr, space := cacheTree(t)
	p, err := BuildProcess(tr, space.AddressAt(0), Config{F: 2, C: 3})
	if err != nil {
		t.Fatal(err)
	}
	ev := classEv(0, 1)
	p.Receive(Gossip{Event: ev, Depth: 1, Rate: 1})
	first := p.ProfileFor(ev, 1)
	s1 := p.MatchStats()
	if s1.Misses != 1 || s1.Hits != 0 || s1.Evals == 0 {
		t.Fatalf("first lookup: %+v", s1)
	}
	second := p.ProfileFor(ev, 1)
	s2 := p.MatchStats()
	if second != first {
		t.Error("second lookup did not return the cached profile")
	}
	if s2.Misses != 1 || s2.Hits != 1 || s2.Evals != s1.Evals {
		t.Fatalf("second lookup recomputed: %+v", s2)
	}
	if first.Hits != first.Popcount() {
		t.Errorf("Hits %d disagrees with popcount %d", first.Hits, first.Popcount())
	}
	if p.ProfileFor(ev, 2) == p.ProfileFor(ev, 2) {
		t.Error("an event not buffered at the depth was served from a cache")
	}
	if s3 := p.MatchStats(); s3.Misses != 3 || s3.Hits != 1 {
		t.Fatalf("unbuffered lookups: %+v", s3)
	}
}

// TestProfileMatchesInterpretedView: the profile's bitset and aggregates are
// what the interpretive Summary.Matches — the oracle interest keeps beside the
// index — says of the view lines, for every view depth of a tree and several
// event classes, and for hand-built views of the shapes the fuzzer reaches
// rarely (rareViews), with the view's index and with the one the adapter
// builds when a view has none. Every line's handle answers alike, and a probe
// counts one Eval per distinct language.
func TestProfileMatchesInterpretedView(t *testing.T) {
	tr, space := cacheTree(t)
	self := space.AddressAt(5)
	p, err := BuildProcess(tr, self, Config{F: 2, C: 3})
	if err != nil {
		t.Fatal(err)
	}
	for depth := 1; depth <= tr.Depth(); depth++ {
		v := tr.ViewAt(self, depth)
		for class := int64(0); class < 3; class++ {
			ev := classEv(class, uint64(10*int64(depth)+class))
			checkProfile(t, fmt.Sprintf("depth %d class %d", depth, class), v, self, ev, p.ProfileFor(ev, depth))
		}
	}
	evs := rareEvents()
	for _, rv := range rareViews() {
		v := &tree.View{Prefix: addr.Prefix{}, Depth: 1, Index: interest.NewIndex(rv.sums, rv.langs)}
		for li, sum := range rv.sums {
			v.Lines = append(v.Lines, tree.Line{Infix: li, Delegates: []addr.Address{addr.New(li, 0), addr.New(li, 1)}, Summary: sum})
		}
		self := addr.New(1, 1)
		shared, own := NewTreeView(v, self), NewTreeView(&tree.View{Prefix: v.Prefix, Depth: 1, Lines: v.Lines, Index: interest.NewIndex(rv.sums, nil)}, self)
		for i, ev := range evs {
			for _, tv := range []*TreeView{shared, own} {
				var prof MatchProfile
				tv.Profile(ev, &prof)
				checkProfile(t, fmt.Sprintf("%s event %d (%s)", rv.name, i, ev), v, self, ev, &prof)
				if tv == shared && prof.Cost.Evals != rv.evals {
					t.Errorf("%s: a probe answered %d languages, want %d", rv.name, prof.Cost.Evals, rv.evals)
				}
			}
			for li, sum := range rv.sums {
				if got, want := v.Index.Line(li).Matches(ev), sum.Matches(ev); got != want {
					t.Errorf("%s line %d event %s: handle %v, interpreted %v", rv.name, li, ev, got, want)
				}
			}
		}
	}
}

// checkProfile holds one profile to Summary.Matches on the view's lines.
func checkProfile(t *testing.T, name string, v *tree.View, self addr.Address, ev event.Event, prof *MatchProfile) {
	t.Helper()
	member, hits, lines, selfIn := 0, 0, 0, false
	for _, line := range v.Lines {
		want := line.Summary.Matches(ev)
		if want {
			lines++
			hits += len(line.Delegates)
			selfIn = selfIn || line.Infix == self.Digit(v.Depth)
		}
		for range line.Delegates {
			if prof.Bit(member) != want {
				t.Errorf("%s member %d: bit %v, interpreted %v", name, member, prof.Bit(member), want)
			}
			member++
		}
	}
	if prof.Hits != hits || prof.Lines != lines || prof.SelfIn != selfIn {
		t.Errorf("%s: hits, lines, self in (%d,%d,%v), interpreted (%d,%d,%v)",
			name, prof.Hits, prof.Lines, prof.SelfIn, hits, lines, selfIn)
	}
	if want := float64(hits) / float64(v.GroupSize()); prof.Rate != want {
		t.Errorf("%s: rate %g, interpreted %g", name, prof.Rate, want)
	}
}

// rareView is a view's lines as summaries, the language name of each (equal
// nonzero names share bits in the index) and the languages a probe answers.
type rareView struct {
	name  string
	sums  []*interest.Summary
	langs []uint64
	evals uint64
}

// rareViews are the view shapes the fuzzer reaches rarely: more than 64
// disjunct bits, with lines straddling block ends; duplicate, match-all,
// empty and nil lines; summaries of subscriptions with unsatisfiable
// criteria (an empty string or interval set), which the fold drops, beside
// satisfiable ones; and one attribute constrained in every kind, so values
// meet criteria of their own kind and of every other. (Shapes no fold makes —
// unsatisfiable disjuncts kept, a match-all flag beside disjuncts — are
// interest's own index tests, which build summaries field by field.)
func rareViews() []rareView {
	where := interest.NewSubscription().Where
	wide := func(lo, n int) *interest.Summary {
		s := interest.NewSummaryWithBound(n)
		for i := 0; i < n; i++ {
			s.Add(where("b", interest.EqInt(int64(lo+i))).Where("c", interest.Gt(float64(i))))
		}
		return s
	}
	return []rareView{
		{"second block", []*interest.Summary{wide(0, 70), wide(100, 30), wide(0, 70), wide(200, 40)}, []uint64{1, 2, 1, 3}, 3},
		{"constants", []*interest.Summary{interest.Summarize(interest.NewSubscription()), interest.NewSummary(), nil,
			interest.Summarize(where("b", interest.Any())), wide(0, 3)}, nil, 4},
		{"unsatisfiable", []*interest.Summary{
			interest.Summarize(where("e", interest.OneOf()), where("b", interest.EqInt(5))),
			interest.Summarize(where("b", interest.InIntervals()).Where("c", interest.Gt(1))),
			interest.Summarize(where("e", interest.OneOf()).Where("b", interest.EqInt(1)), interest.NewSubscription())}, nil, 3},
		{"kinds", []*interest.Summary{
			interest.Summarize(where("b", interest.Between(0, 10))), interest.Summarize(where("b", interest.OneOf("x", "1"))),
			interest.Summarize(where("b", interest.IsBool(true))), interest.Summarize(where("b", interest.IsBool(false))),
			interest.Summarize(where("e", interest.OneOf("1")), where("e", interest.EqInt(2))),
			interest.Summarize(where("b", interest.Between(0, 10)))}, []uint64{7, 0, 0, 0, 0, 7}, 5},
		{"absent attributes", []*interest.Summary{
			interest.Summarize(where("b", interest.EqInt(1)).Where("z", interest.Ge(0))),
			interest.Summarize(where("z", interest.Lt(0))), interest.Summarize(where("a", interest.IsBool(true)))}, nil, 3},
	}
}

// rareEvents crosses values of b of every kind — integers on and between the
// views' boundaries, floats, strings, booleans, the zero Value and absence —
// with c, e and z present, absent or of a foreign kind.
func rareEvents() []event.Event {
	bs := []event.Value{event.Int(-1), event.Int(0), event.Int(1), event.Int(5), event.Int(10), event.Int(63),
		event.Int(64), event.Int(69), event.Int(70), event.Int(100), event.Int(129), event.Int(139), event.Int(239),
		event.Int(250), event.Float(5.5), event.Float(64), event.Str("x"), event.Str("1"), event.Str(""),
		event.Bool(true), event.Bool(false), {}}
	var evs []event.Event
	for i := 0; i <= len(bs); i++ {
		for j, c := range []event.Value{{}, event.Int(3), event.Float(100.5), event.Str("3")} {
			for k := 0; k < 5; k++ {
				b := event.NewBuilder()
				if i < len(bs) {
					b.Set("b", bs[i])
				}
				if j > 0 {
					b.Set("c", c)
				}
				switch k {
				case 1:
					b.Str("e", "1")
				case 2:
					b.Int("e", 1).Bool("a", true)
				case 3:
					b.Int("z", 0)
				case 4:
					b.Int("z", -1).Str("a", "true")
				}
				evs = append(evs, b.Build(event.ID{Origin: "rare", Seq: uint64(len(evs) + 1)}))
			}
		}
	}
	return evs
}

// TestProfileAllocatesNothing: a profile into a reused MatchProfile — what
// every cache miss of a live process computes — allocates nothing, on a tree
// view and on a view of three index blocks.
func TestProfileAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted only without the race detector")
	}
	tr, space := cacheTree(t)
	self := space.AddressAt(5)
	rv := rareViews()[0]
	v := &tree.View{Prefix: addr.Prefix{}, Depth: 1, Index: interest.NewIndex(rv.sums, rv.langs)}
	for li, sum := range rv.sums {
		v.Lines = append(v.Lines, tree.Line{Infix: li, Delegates: []addr.Address{addr.New(li, 0)}, Summary: sum})
	}
	ev := event.NewBuilder().Int("b", 69).Float("c", 100.5).Build(event.ID{Origin: "t", Seq: 1})
	for _, tv := range []*TreeView{NewTreeView(tr.ViewAt(self, 1), self), NewTreeView(tr.ViewAt(self, 2), self), NewTreeView(v, self)} {
		var prof MatchProfile
		tv.Profile(ev, &prof)
		if allocs := testing.AllocsPerRun(100, func() { tv.Profile(ev, &prof) }); allocs != 0 {
			t.Errorf("a profile into a reused MatchProfile allocates %.1f times, want 0", allocs)
		}
	}
}

// mutableView is a stub whose generation and matching flip on demand — the
// simulator's redraw pattern.
type mutableView struct {
	size int
	gen  uint64
	on   bool
}

func (v *mutableView) Size() int                   { return v.size }
func (v *mutableView) MemberAt(i int) addr.Address { return addr.New(i, v.size) }
func (v *mutableView) SelfIndex() int              { return -1 }
func (v *mutableView) Generation() uint64          { return v.gen }
func (v *mutableView) Profile(_ event.Event, p *MatchProfile) {
	p.Ensure(v.size)
	if v.on {
		p.SetRange(0, v.size)
		p.Hits, p.Lines, p.Rate = v.size, v.size, 1
	}
}

// TestProfileCacheInvalidatesOnGeneration: a generation bump drops cached
// profiles; without it they would serve stale matching.
func TestProfileCacheInvalidatesOnGeneration(t *testing.T) {
	v := &mutableView{size: 4, gen: 1, on: true}
	p, err := NewProcess(addr.New(0, 4), Config{D: 1, F: 2, C: 3}, []DepthView{v}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := classEv(0, 1)
	p.Receive(Gossip{Event: ev, Depth: 1, Rate: 1})
	if got := p.ProfileFor(ev, 1).Rate; got != 1 {
		t.Fatalf("rate %g, want 1", got)
	}
	// Same generation: the flipped view must NOT be observed (cache hit) —
	// this is what "exact" means: entries live exactly as long as their
	// generation.
	v.on = false
	if got := p.ProfileFor(ev, 1).Rate; got != 1 {
		t.Fatalf("cache did not serve the generation-stable profile: rate %g", got)
	}
	// Bumped generation: the cache must recompute.
	v.gen = 2
	if got := p.ProfileFor(ev, 1).Rate; got != 0 {
		t.Fatalf("stale profile after generation bump: rate %g", got)
	}
}

// TestAdoptStateCarriesCaches: a rebuilt process adopts the buffered entries'
// profiles, which answer at depths whose view generation is unchanged and
// are recomputed at the rest; counters accumulate.
func TestAdoptStateCarriesCaches(t *testing.T) {
	tr, space := cacheTree(t)
	self := space.AddressAt(0)
	old, err := BuildProcess(tr, self, Config{F: 2, C: 3})
	if err != nil {
		t.Fatal(err)
	}
	// One buffered event per depth: an entry holds the profile of the depth it
	// is buffered at.
	evAt := func(depth int) event.Event { return classEv(0, uint64(depth)) }
	for depth := 1; depth <= tr.Depth(); depth++ {
		old.Receive(Gossip{Event: evAt(depth), Depth: depth, Rate: 1})
		old.ProfileFor(evAt(depth), depth)
	}
	oldStats := old.MatchStats()

	// Mutate one leaf subgroup: the leaf-depth view of subtree 0 changes
	// generation, the depth-1 view (root children) changes too — both along
	// the touched path.
	if err := tr.UpdateSubscription(space.AddressAt(1),
		interest.NewSubscription().Where("b", interest.EqInt(7))); err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildProcess(tr, self, Config{F: 2, C: 3})
	if err != nil {
		t.Fatal(err)
	}
	fresh.AdoptState(old)
	got := fresh.MatchStats()
	if got.Evals != oldStats.Evals || got.Misses != oldStats.Misses {
		t.Fatalf("adopted counters %+v, want %+v", got, oldStats)
	}
	// Every depth on the touched path must recompute (miss); with self at
	// 0.0 and the update at 0.1, every view of self shares the touched
	// path, so all lookups miss.
	before := fresh.MatchStats().Misses
	for depth := 1; depth <= tr.Depth(); depth++ {
		fresh.ProfileFor(evAt(depth), depth)
	}
	if after := fresh.MatchStats().Misses; after != before+uint64(tr.Depth()) {
		t.Errorf("%d recomputes after a tree delta on the shared path, want %d", after-before, tr.Depth())
	}

	// A rebuild with NO tree movement keeps every cached profile.
	same, err := BuildProcess(tr, self, Config{F: 2, C: 3})
	if err != nil {
		t.Fatal(err)
	}
	same.AdoptState(fresh)
	b := same.MatchStats()
	for depth := 1; depth <= tr.Depth(); depth++ {
		same.ProfileFor(evAt(depth), depth)
	}
	a := same.MatchStats()
	if a.Misses != b.Misses {
		t.Errorf("rebuild without movement recomputed %d profiles", a.Misses-b.Misses)
	}
	if a.Hits != b.Hits+uint64(tr.Depth()) {
		t.Errorf("expected %d cache hits, got %d", tr.Depth(), a.Hits-b.Hits)
	}
}

// TestTickDeterministicWithCache: two processes over the same tree with the
// same RNG seed emit identical send sequences even when one of them holds the
// received event's profile already and the other computes it in its first
// round — caching changes no observable behavior.
func TestTickDeterministicWithCache(t *testing.T) {
	tr, space := cacheTree(t)
	self := space.AddressAt(0)
	mk := func() *Process {
		p, err := BuildProcess(tr, self, Config{F: 2, C: 3})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	warm, cold := mk(), mk()
	ev := classEv(1, 1)
	warm.Receive(Gossip{Event: ev, Depth: 1, Rate: 0.5})
	cold.Receive(Gossip{Event: ev, Depth: 1, Rate: 0.5})
	// Warm the entry before the protocol runs.
	if warm.ProfileFor(ev, 1); warm.MatchStats().Misses != 1 || cold.MatchStats().Misses != 0 {
		t.Fatalf("warm-up: warm %+v, cold %+v", warm.MatchStats(), cold.MatchStats())
	}
	rngW := rand.New(rand.NewSource(7))
	rngC := rand.New(rand.NewSource(7))
	for round := 0; warm.Pending() > 0 || cold.Pending() > 0; round++ {
		if round > 128 {
			t.Fatal("no quiescence")
		}
		sw := warm.Tick(rngW)
		sc := cold.Tick(rngC)
		if len(sw) != len(sc) {
			t.Fatalf("round %d: %d vs %d sends", round, len(sw), len(sc))
		}
		for i := range sw {
			gw, gc := sw[i].Gossip, sc[i].Gossip
			if !sw[i].To.Equal(sc[i].To) || gw.Event.ID() != gc.Event.ID() ||
				gw.Depth != gc.Depth || gw.Rate != gc.Rate || gw.Round != gc.Round {
				t.Fatalf("round %d send %d: %+v vs %+v", round, i, sw[i], sc[i])
			}
		}
	}
}

// TestRebuildProcessKeepsExactSubscription: a rebuild over moved views keeps
// the predecessor's compiled own subscription while the subscription stands
// (compiling a large one is most of a build's allocations) and compiles
// afresh the moment it moves — the delivery predicate is always the member's
// exact current subscription.
func TestRebuildProcessKeepsExactSubscription(t *testing.T) {
	tr, space := cacheTree(t)
	self, peer := space.AddressAt(0), space.AddressAt(1)
	topics := func(salt int) interest.Subscription {
		names := make([]string, 300)
		for i := range names {
			names[i] = fmt.Sprintf("t%d-%d", salt, i)
		}
		return interest.NewSubscription().Where("topic", interest.OneOf(names...))
	}
	topicEv := func(name string, seq uint64) event.Event {
		return event.NewBuilder().Str("topic", name).Build(event.ID{Origin: "t", Seq: seq})
	}
	delivered := func(p *Process, ev event.Event) bool {
		t.Helper()
		if err := p.Multicast(ev); err != nil {
			t.Fatal(err)
		}
		return len(p.Deliveries()) == 1
	}
	if err := tr.UpdateSubscription(self, topics(0)); err != nil {
		t.Fatal(err)
	}
	cfg := Config{F: 2, C: 3}
	old, err := BuildProcess(tr, self, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !delivered(old, topicEv("t0-7", 1)) {
		t.Fatal("own subscription does not deliver its topic")
	}

	// A peer moves: self's views change, its subscription does not.
	if err := tr.UpdateSubscription(peer, topics(9)); err != nil {
		t.Fatal(err)
	}
	var next *Process
	kept := testing.AllocsPerRun(10, func() { next, _ = RebuildProcess(tr, self, cfg, old) })
	scratch := testing.AllocsPerRun(10, func() { _, _ = BuildProcess(tr, self, cfg) })
	if kept >= scratch {
		t.Errorf("rebuild with the subscription unmoved allocates %.0f times, a build from scratch %.0f; the matcher was recompiled", kept, scratch)
	}
	if !next.HasSeen(event.ID{Origin: "t", Seq: 1}) {
		t.Error("rebuild dropped the predecessor's seen-set")
	}
	if !delivered(next, topicEv("t0-8", 2)) || delivered(next, topicEv("t1-8", 3)) {
		t.Error("kept matcher is not the own subscription's")
	}

	// Self moves: the kept matcher would now be stale.
	if err := tr.UpdateSubscription(self, topics(1)); err != nil {
		t.Fatal(err)
	}
	moved, err := RebuildProcess(tr, self, cfg, next)
	if err != nil {
		t.Fatal(err)
	}
	if delivered(moved, topicEv("t0-9", 4)) || !delivered(moved, topicEv("t1-9", 5)) {
		t.Error("rebuild after a subscription change still delivers by the old subscription")
	}
}

// TestRebuildCostIndependentOfHistory: a rebuild takes the predecessor's
// state over instead of copying it — or building one of its own to drop — so
// it allocates the same after 10 received events as after 10 000, and only
// for the shell. The rebuilt process is the old one
// continued: it dedupes an old ID and ticks the buffers it was handed.
func TestRebuildCostIndependentOfHistory(t *testing.T) {
	tr, space := cacheTree(t)
	self := space.AddressAt(0)
	cfg := Config{F: 2, C: 3}
	rebuild := func(history int) (float64, *Process) {
		old, err := BuildProcess(tr, self, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= history; i++ {
			old.Receive(Gossip{Event: classEv(0, uint64(i)), Depth: 1, Rate: 1})
		}
		var next *Process
		allocs := testing.AllocsPerRun(10, func() { next, _ = RebuildProcess(tr, self, cfg, old) })
		return allocs, next
	}
	short, _ := rebuild(10)
	long, next := rebuild(10000)
	if short != long {
		t.Errorf("rebuild allocates %.0f times after 10 events, %.0f after 10000", short, long)
	}
	// No view moved and the state is taken over, not built and dropped: what
	// is left is the process and its two view slices.
	if short > 3 {
		t.Errorf("rebuild with nothing moved allocates %.0f times, want at most 3", short)
	}
	next.Receive(Gossip{Event: classEv(0, 1), Depth: 1, Rate: 1})
	if _, received := next.Stats(); received != 10000 {
		t.Errorf("%d first receptions after replaying an old ID, want 10000", received)
	}
	if next.Pending() != 10000 {
		t.Fatalf("%d events buffered after the rebuild, want 10000", next.Pending())
	}
	if len(next.Tick(rand.New(rand.NewSource(1)))) == 0 {
		t.Error("rebuilt process does not gossip the buffers it was handed")
	}
}

// TestRebuildKeepsUnmovedViews: a membership change under another top-level
// subtree moves only the depth-1 view of a process, so a rebuild carries the
// deeper TreeViews over from the process it replaces — by pointer, building
// nothing for them — and replaces exactly the one whose generation moved.
func TestRebuildKeepsUnmovedViews(t *testing.T) {
	space := addr.MustRegular(4, 3)
	members := make([]tree.Member, space.Capacity())
	for i := range members {
		members[i] = tree.Member{Addr: space.AddressAt(i), Sub: interest.NewSubscription().Where("b", interest.EqInt(int64(i%2)))}
	}
	tr, err := tree.Build(tree.Config{Space: space, R: 2}, members)
	if err != nil {
		t.Fatal(err)
	}
	self, cfg := space.AddressAt(0), Config{F: 2, C: 3}
	old, err := BuildProcess(tr, self, cfg)
	if err != nil {
		t.Fatal(err)
	}
	unmoved := testing.AllocsPerRun(10, func() { _, _ = RebuildProcess(tr, self, cfg, old) })
	if unmoved > 3 {
		t.Errorf("rebuild with no view moved allocates %.0f times, want at most 3 (the process and its view slices)", unmoved)
	}

	// 3.3.3 starts matching b=7: subtree 3's summary language moves, and with
	// it the root's lines — nothing under self's own prefixes 0 and 0.0.
	foreign := space.AddressAt(space.Capacity() - 1)
	if err := tr.UpdateSubscription(foreign, interest.NewSubscription().Where("b", interest.EqInt(7))); err != nil {
		t.Fatal(err)
	}
	var next *Process
	moved := testing.AllocsPerRun(10, func() { next, err = RebuildProcess(tr, self, cfg, old) })
	if err != nil {
		t.Fatal(err)
	}
	if next.views[0] == old.views[0] {
		t.Error("the depth-1 view survived a change of one of its lines")
	}
	if g := next.views[0].(*TreeView).Generation(); g != tr.GenerationAt(self, 1) {
		t.Errorf("depth-1 view carries generation %d, the tree reports %d", g, tr.GenerationAt(self, 1))
	}
	for depth := 2; depth <= space.Depth(); depth++ {
		if next.views[depth-1] != old.views[depth-1] {
			t.Errorf("depth-%d view was rebuilt after a change in a foreign subtree", depth)
		}
	}
	oneView := testing.AllocsPerRun(10, func() { NewTreeView(tr.ViewAt(self, 1), self) })
	if moved != unmoved+oneView {
		t.Errorf("rebuild allocates %.0f with no view moved and %.0f with one; want the depth-1 view's %.0f apart",
			unmoved, moved, oneView)
	}
	// The carried views still answer: an event of the new class reaches
	// subtree 3 only.
	if prof := next.ProfileFor(classEv(7, 1), 1); prof.Lines != 1 || prof.SelfIn {
		t.Errorf("b=7 matches %d depth-1 lines (self in: %v), want 1 foreign line", prof.Lines, prof.SelfIn)
	}
}

// TestSmallProfileAllocatesNoBits: a profile of a view of at most 64 members
// keeps its bits in a word of its own, so a fresh one allocates nothing; a
// larger view (the simulator's reach 66) gets one slice. Both answer Bit as
// the ranges set, after a reuse at the other size.
func TestSmallProfileAllocatesNoBits(t *testing.T) {
	fill := func(p *MatchProfile, size int) {
		p.Ensure(size)
		p.SetRange(min(1, size), min(3, size))
		p.Set(size - 1)
		p.SetRange(size/2, size/2+size/4)
	}
	for _, c := range []struct{ size, allocs int }{{1, 0}, {5, 0}, {40, 0}, {64, 0}, {65, 1}, {66, 1}, {200, 1}} {
		if !raceEnabled {
			if got := testing.AllocsPerRun(50, func() { var p MatchProfile; fill(&p, c.size) }); int(got) != c.allocs {
				t.Errorf("a fresh profile of %d members allocates %.0f times, want %d", c.size, got, c.allocs)
			}
		}
		var p MatchProfile
		fill(&p, 130) // a reuse starts from the other representation
		fill(&p, c.size)
		want := 0
		for i := 0; i < c.size; i++ {
			in := i == 1 || i == 2 || i == c.size-1 || (i >= c.size/2 && i < c.size/2+c.size/4)
			if p.Bit(i) != in {
				t.Errorf("size %d: Bit(%d) = %v, want %v", c.size, i, p.Bit(i), in)
			}
			if in {
				want++
			}
		}
		if got := p.Popcount(); got != want {
			t.Errorf("size %d: %d bits set, want %d", c.size, got, want)
		}
	}
}
