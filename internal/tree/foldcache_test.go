package tree

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"pmcast/internal/addr"
	"pmcast/internal/event"
	"pmcast/internal/interest"
)

// TestFoldCacheBounded drives sustained subscription flux — every round
// mints 16 fresh fold inputs — through a tree whose store is bounded to 4
// entries a table, and checks the bound holds for the regroupings and the
// language names: live entries never exceed the bound, the generational
// sweep actually evicts, and eviction is a pure cost (the tree's summaries
// stay correct, it just recomputes folds a bigger cache would have
// remembered). The zero bound is the default, not unbounded and not tiny: 200
// distinct languages evict nothing, and a language folded again while live
// comes back under the same name — which view signatures and the bits a
// view's index shares between lines depend on.
func TestFoldCacheBounded(t *testing.T) {
	space, err := addr.NewSpace(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 4
	members := make([]Member, space.Capacity())
	for i := range members {
		members[i] = Member{
			Addr: space.AddressAt(i),
			Sub:  interest.NewSubscription().Where("topic", interest.OneOf(fmt.Sprintf("seed-%d", i))),
		}
	}
	tr, err := Build(Config{Space: space, R: 2, foldCacheBound: bound}, members)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 32; round++ {
		for i := range members {
			sub := interest.NewSubscription().
				Where("topic", interest.OneOf(fmt.Sprintf("r%d-n%d", round, i)))
			if err := tr.UpdateSubscription(members[i].Addr, sub); err != nil {
				t.Fatal(err)
			}
		}
	}
	fs := tr.FoldStats()
	if fs.CacheEntries > bound {
		t.Errorf("fold cache holds %d entries, bound %d", fs.CacheEntries, bound)
	}
	if fs.CacheEvictions == 0 {
		t.Error("sustained flux evicted nothing — the fold cache is not bounded")
	}
	if fs.CompilerEntries > bound {
		t.Errorf("language table holds %d entries, bound %d", fs.CompilerEntries, bound)
	}
	if fs.CompilerEvictions == 0 {
		t.Error("sustained flux evicted no language names — the table is not bounded")
	}
	if fs.Recomputes == 0 {
		t.Error("fold recompute meter never moved")
	}
	// Eviction must not corrupt matching: the last round's subscriptions
	// are live, the first round's are gone.
	last := event.New(event.ID{Origin: "fc", Seq: 1},
		map[string]event.Value{"topic": event.Str("r31-n5")})
	if got := tr.MatchReach(last); got == 0 {
		t.Error("live subscription unreachable after cache churn")
	}
	stale := event.New(event.ID{Origin: "fc", Seq: 2},
		map[string]event.Value{"topic": event.Str("r0-n5")})
	if got := tr.MatchReach(stale); got != 0 {
		t.Errorf("replaced subscription still reachable (%d) after cache churn", got)
	}

	roomy, err := Build(Config{Space: space, R: 2}, members)
	if err != nil {
		t.Fatal(err)
	}
	victim := members[0].Addr
	for i := 0; i < 200; i++ {
		sub := interest.NewSubscription().Where("k", interest.EqInt(int64(i)))
		if err := roomy.UpdateSubscription(victim, sub); err != nil {
			t.Fatal(err)
		}
		// The same language reached through another fold: a summary of its own.
		held := roomy.lookupPath(victim, roomy.Depth()).lang
		if again := roomy.store.lang(interest.Summarize(sub)); again != held {
			t.Fatalf("language %d: folded again while live, named %d; the leaf holds %d", i, again, held)
		}
	}
	if fs := roomy.FoldStats(); fs.CompilerEntries < 200 || fs.CompilerEvictions != 0 {
		t.Errorf("200 distinct languages under the default bound %d: %d live, %d evicted; want all live",
			DefaultFoldCacheBound, fs.CompilerEntries, fs.CompilerEvictions)
	}
}

// TestSiblingLanguagesShareOneMatcher: the store names a language, not the
// order its disjuncts were accumulated in. Sibling subgroups whose members
// hold the same subscriptions in different address order regroup to different
// summaries under one name, and their lines share one set of bits in the
// view's index — one language answered per probe; a second tree of the store
// whose subgroup holds them the other way round is made of different nodes
// and reports the same view generation; a subgroup with another language
// moves the generation and holds bits of its own.
func TestSiblingLanguagesShareOneMatcher(t *testing.T) {
	space := addr.MustRegular(2, 2)
	s1 := interest.NewSubscription().Where("b", interest.EqInt(2)).Where("c", interest.Gt(40))
	s2 := interest.NewSubscription().Where("b", interest.EqInt(3)).Where("c", interest.Gt(40))
	s3 := interest.NewSubscription().Where("b", interest.EqInt(4))
	first, err := New(Config{Space: space, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	build := func(subs ...interest.Subscription) *Tree {
		tr := first.Clone()
		members := make([]Member, len(subs))
		for i, sub := range subs {
			members[i] = Member{Addr: space.AddressAt(i), Sub: sub}
		}
		if err := tr.ApplyDelta(Delta{Add: members}); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// languages probes the view's index once and returns the distinct
	// languages it answered: one run of bits each.
	languages := func(v *View) uint64 {
		var mc interest.MatchCounter
		v.Index.Probe(event.NewBuilder().Int("b", 3).Float("c", 50).Build(event.ID{Origin: "sib", Seq: 1}),
			make([]uint64, v.Index.Blocks()), &mc)
		return mc.Evals
	}
	a := build(s1, s2, s2, s1)
	v := a.ViewOf(addr.Root(), 1)
	if v.Lines[0].Summary.OrderedFingerprint() == v.Lines[1].Summary.OrderedFingerprint() {
		t.Fatal("the siblings regrouped to one summary: the test does not exercise language naming")
	}
	if n := languages(v); n != 1 {
		t.Errorf("sibling subgroups of one language hold %d sets of bits, want 1", n)
	}
	swapped, other := build(s2, s1, s2, s1), build(s1, s3, s2, s1)
	if swapped.root == a.root {
		t.Fatal("the swapped tree is the same trie: the test does not exercise the view signature")
	}
	if g, w := swapped.Generation(addr.Root()), a.Generation(addr.Root()); g != w {
		t.Errorf("same lines from differently ordered members: generation %d, want %d", g, w)
	}
	if other.Generation(addr.Root()) == a.Generation(addr.Root()) {
		t.Error("a subgroup of another language left the view generation unmoved")
	}
	if n := languages(other.ViewOf(addr.Root(), 1)); n != 2 {
		t.Errorf("subgroups of two languages hold %d sets of bits, want 2", n)
	}
}

// TestViewIndexHeldWeakly: a node's view index is built once and shared while
// a view holds it — across ViewOf calls, clones and collections — and only
// that long. Once nothing holds it, a collection frees it, the node keeps no
// index, and the next ViewOf builds one that answers every line alike.
func TestViewIndexHeldWeakly(t *testing.T) {
	space := addr.MustRegular(4, 2)
	members := make([]Member, space.Capacity())
	for i := range members {
		members[i] = Member{Addr: space.AddressAt(i), Sub: interest.NewSubscription().Where("b", interest.EqInt(int64(i%3)))}
	}
	tr, err := Build(Config{Space: space, R: 2}, members)
	if err != nil {
		t.Fatal(err)
	}
	evs := make([]event.Event, 4)
	for b := range evs {
		evs[b] = event.NewBuilder().Int("b", int64(b)).Build(event.ID{Origin: "weak", Seq: uint64(b)})
	}
	answers := func(x *interest.Index) string {
		hits := make([]uint64, x.Blocks())
		out := ""
		for _, ev := range evs {
			x.Probe(ev, hits, nil)
			for li := range tr.root.children {
				out += fmt.Sprint(x.Hit(hits, li))
			}
			out += "|"
		}
		return out
	}
	// held runs in a frame of its own, so nothing it held outlives it.
	held := func() string {
		v := tr.ViewOf(addr.Root(), 1)
		runtime.GC()
		if again := tr.ViewOf(addr.Root(), 1); again.Index != v.Index {
			t.Error("a held view's index was built again")
		}
		if cloned := tr.Clone().ViewOf(addr.Root(), 1); cloned.Index != v.Index {
			t.Error("a clone of the store built its own index of a held view")
		}
		return answers(v.Index)
	}
	want := held()
	runtime.GC()
	tr.store.mu.Lock()
	kept := tr.root.index.Value()
	tr.store.mu.Unlock()
	if kept != nil {
		t.Error("the node still holds its view's index after every view was dropped")
	}
	if got := answers(tr.ViewOf(addr.Root(), 1).Index); got != want {
		t.Errorf("the rebuilt index answers %s, the first %s", got, want)
	}
}

// TestFoldCacheSharing pins the other half of the contract: two trees over
// identical member sets share fold results — the second build is nearly
// all cache hits — because clones and co-hosted fleets are meant to pay
// for each distinct fold once.
func TestFoldCacheSharing(t *testing.T) {
	space, err := addr.NewSpace(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]Member, space.Capacity())
	for i := range members {
		members[i] = Member{
			Addr: space.AddressAt(i),
			Sub:  interest.NewSubscription().Where("topic", interest.OneOf(fmt.Sprintf("t-%d", i/4))),
		}
	}
	tr, err := Build(Config{Space: space, R: 2}, members)
	if err != nil {
		t.Fatal(err)
	}
	first := tr.FoldStats()
	clone := tr.Clone()
	for i := range members {
		// A no-op update (same subscription) recomputes the path; every
		// fold input recurs, so the shared cache must serve them all.
		if err := clone.UpdateSubscription(members[i].Addr, members[i].Sub); err != nil {
			t.Fatal(err)
		}
	}
	// Clone shares the donor's caches but meters its own regrouping work
	// from zero.
	second := clone.FoldStats()
	if second.CacheID != first.CacheID {
		t.Fatalf("clone minted its own fold cache (%d vs %d) — sharing lost", second.CacheID, first.CacheID)
	}
	if second.Recomputes != 0 {
		t.Errorf("recurring folds recomputed %d times; want 0 (all served by the shared cache)", second.Recomputes)
	}
	if second.Hits == 0 {
		t.Error("fold-cache hit meter never moved across the clone's recomputes")
	}
}

// TestFoldIdentitiesExactUnderSweeps is the exactness property of the
// identity scheme at its worst: three cloned trees share one store bounded to
// 4 entries a table, so summary identities, trie nodes — most of them still
// held by one of the trees — and view signatures are swept and minted again
// on almost every step, while random Add/Update/Remove sequences (single
// calls and batches) drive the trees apart. After every step the mutated
// tree must be
// indistinguishable — same summary in the same disjunct order, same compiled
// language, same delegates and counts at every prefix — from a tree built
// from scratch over the same members with a private, unbounded cache, and
// views of equal generation must expose equal lines across all three. It is
// also the clone-isolation property: a change to one tree never shows in the
// member answers of the trees it shares nodes with.
func TestFoldIdentitiesExactUnderSweeps(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	// More distinct interests than the summary bound, so folds regroup
	// (order-sensitively) and not merely concatenate.
	var pool []interest.Subscription
	for b := int64(0); b < 6; b++ {
		for c := int64(0); c < 3; c++ {
			pool = append(pool, interest.NewSubscription().
				Where("b", interest.EqInt(b)).Where("c", interest.EqInt(c)))
		}
	}
	for trial := 0; trial < 8; trial++ {
		space := addr.MustRegular(2+r.Intn(3), 2+r.Intn(2))
		first, err := New(Config{Space: space, R: 1 + r.Intn(2), foldCacheBound: 4})
		if err != nil {
			t.Fatal(err)
		}
		trees := []*Tree{first, first.Clone(), first.Clone()}
		models := make([]map[int]interest.Subscription, len(trees))
		for i := range models {
			models[i] = make(map[int]interest.Subscription)
		}
		for step := 0; step < 150; step++ {
			k := r.Intn(len(trees))
			tr, model := trees[k], models[k]
			var d Delta
			for _, idx := range r.Perm(space.Capacity())[:1+r.Intn(3)] {
				a, sub := space.AddressAt(idx), pool[r.Intn(len(pool))]
				_, present := model[idx]
				switch {
				case !present:
					d.Add = append(d.Add, Member{Addr: a, Sub: sub})
					model[idx] = sub
				case r.Intn(3) == 0:
					d.Remove = append(d.Remove, a)
					delete(model, idx)
				default:
					d.Update = append(d.Update, Member{Addr: a, Sub: sub})
					model[idx] = sub
				}
			}
			if err := applyEither(tr, d); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if step%5 == 0 {
				// Clones made mid-sequence share whatever identities are live.
				trees[(k+1)%len(trees)], models[(k+1)%len(models)] = tr.Clone(), maps.Clone(model)
			}
			members := make([]Member, 0, len(model))
			for idx, sub := range model {
				members = append(members, Member{Addr: space.AddressAt(idx), Sub: sub})
			}
			ref, err := Build(Config{Space: space, R: tr.R()}, members)
			if err != nil {
				t.Fatal(err)
			}
			compareTries(t, tr, ref, addr.Root(), space)
			// The step changed one tree: every tree — the two it shares trie
			// nodes with included — must still answer from its own model.
			for i := range trees {
				checkMembers(t, trees[i], models[i], space)
			}
			checkGenerations(t, trees)
			if t.Failed() {
				t.Fatalf("trial %d diverged at step %d (%d members)", trial, step, len(members))
			}
		}
		if fc := first.store; fc.folds.evictions == 0 || fc.nodes.evictions == 0 || fc.views.evictions == 0 {
			t.Fatalf("trial %d: bound 4 swept %d folds, %d nodes, %d view signatures — the property was not exercised",
				trial, fc.folds.evictions, fc.nodes.evictions, fc.views.evictions)
		}
	}
}

// applyEither applies a one-change delta through the single-member call and
// anything else through ApplyDelta.
func applyEither(tr *Tree, d Delta) error {
	switch {
	case len(d.Add) == 1 && len(d.Update)+len(d.Remove) == 0:
		return tr.Add(d.Add[0])
	case len(d.Update) == 1 && len(d.Add)+len(d.Remove) == 0:
		return tr.UpdateSubscription(d.Update[0].Addr, d.Update[0].Sub)
	case len(d.Remove) == 1 && len(d.Add)+len(d.Update) == 0:
		return tr.Remove(d.Remove[0])
	}
	return tr.ApplyDelta(d)
}

// checkMembers holds the tree's member answers — Len, Member, Members and
// leaf-depth IsDelegate — against the model of what was put into it.
func checkMembers(t *testing.T, tr *Tree, model map[int]interest.Subscription, space addr.Space) {
	t.Helper()
	if tr.Len() != len(model) {
		t.Errorf("Len %d, model holds %d", tr.Len(), len(model))
	}
	var want []addr.Address
	for idx := 0; idx < space.Capacity(); idx++ { // index order is address order
		a := space.AddressAt(idx)
		sub, present := model[idx]
		m, ok := tr.Member(a)
		if ok != present || tr.IsDelegate(a, tr.Depth()) != present {
			t.Errorf("%s: Member %v, leaf IsDelegate %v, model %v", a, ok, tr.IsDelegate(a, tr.Depth()), present)
		}
		if present {
			want = append(want, a)
			if ok && m.Sub.Identity() != sub.Identity() {
				t.Errorf("%s: Member holds %s, model %s", a, m.Sub, sub)
			}
		}
	}
	got := tr.Members()
	if len(got) != len(want) {
		t.Errorf("Members lists %d, model holds %d", len(got), len(want))
		return
	}
	for i, m := range got {
		if !m.Addr.Equal(want[i]) {
			t.Errorf("Members[%d] = %s, want %s (address order)", i, m.Addr, want[i])
		}
	}
}

// compareTries checks got against want at p and every populated prefix
// below it.
func compareTries(t *testing.T, got, want *Tree, p addr.Prefix, space addr.Space) {
	t.Helper()
	if g, w := got.Count(p), want.Count(p); g != w {
		t.Errorf("%s: count %d, from scratch %d", p, g, w)
		return
	}
	if want.Count(p) == 0 {
		return
	}
	if g, w := got.Summary(p).OrderedFingerprint(), want.Summary(p).OrderedFingerprint(); g != w {
		t.Errorf("%s: summary %s, from scratch %s", p, got.Summary(p), want.Summary(p))
	}
	if g, w := got.Summary(p).Fingerprint(), want.Summary(p).Fingerprint(); g != w {
		t.Errorf("%s: compiled language differs from scratch", p)
	}
	if g, w := fmt.Sprint(got.Delegates(p)), fmt.Sprint(want.Delegates(p)); g != w {
		t.Errorf("%s: delegates %s, from scratch %s", p, g, w)
	}
	if p.Len() == space.Depth() {
		return
	}
	for digit := 0; digit < space.Arity(p.Len()+1); digit++ {
		compareTries(t, got, want, p.Child(digit), space)
	}
}

// TestFoldHitCostIndependentOfSummarySize pins what the identities buy: an
// ApplyDelta whose every node is already in the store — a member toggling
// between two known subscriptions, the shape of a co-hosted fleet digesting
// one redraw — allocates the same for 8-topic members as for 2048-topic
// ones. Keys built from the summaries' encodings grew with them.
func TestFoldHitCostIndependentOfSummarySize(t *testing.T) {
	space := addr.MustRegular(4, 3)
	toggleAllocs := func(topics int) float64 {
		sub := func(salt int) interest.Subscription {
			names := make([]string, topics)
			for i := range names {
				names[i] = fmt.Sprintf("t%d-%d", salt, i)
			}
			return interest.NewSubscription().Where("topic", interest.OneOf(names...))
		}
		members := make([]Member, space.Capacity())
		for i := range members {
			members[i] = Member{Addr: space.AddressAt(i), Sub: sub(i)}
		}
		tr, err := Build(Config{Space: space, R: 2}, members)
		if err != nil {
			t.Fatal(err)
		}
		victim := members[5].Addr
		deltas := [2]Delta{
			{Update: []Member{{Addr: victim, Sub: sub(-1)}}},
			{Update: []Member{{Addr: victim, Sub: members[5].Sub}}},
		}
		turn := 0
		toggle := func() {
			if err := tr.ApplyDelta(deltas[turn%2]); err != nil {
				t.Fatal(err)
			}
			turn++
		}
		toggle()
		toggle() // both states folded once: from here on every fold is a hit
		before := tr.FoldStats()
		allocs := testing.AllocsPerRun(50, toggle)
		after := tr.FoldStats()
		if after.Recomputes != before.Recomputes || after.Hits == before.Hits {
			t.Fatalf("toggle was not all hits: recomputes %d→%d, hits %d→%d",
				before.Recomputes, after.Recomputes, before.Hits, after.Hits)
		}
		return allocs
	}
	small, large := toggleAllocs(8), toggleAllocs(2048)
	if small != large {
		t.Errorf("all-hits ApplyDelta allocates %.0f with 8-topic members, %.0f with 2048-topic ones; want equal", small, large)
	}
	// Every touched node — the leaf and its ancestors — is served whole from
	// the store, the batch and the child arrays stay on the stack: nothing is
	// allocated at all.
	if small > 0 {
		t.Errorf("all-hits ApplyDelta allocates %.0f times; want 0", small)
	}
}

// TestFoldCacheRaceCountsOnce: two trees that need the same fold at the same
// instant both compute it, but only one result is kept — the loser adopts
// the resident summary and its identity and counts a hit — so Recomputes is
// the number of distinct folds inserted and repeats exactly run to run. The
// same holds one table over: however many trees name a language at once,
// they all end up holding one name for it.
func TestFoldCacheRaceCountsOnce(t *testing.T) {
	space := addr.MustRegular(4, 3)
	first, err := New(Config{Space: space, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The race itself, forced: both trees are inside the merge — past their
	// cache miss — before either may finish it.
	sub := interest.NewSubscription().Where("topic", interest.OneOf("x"))
	pair := [2]*Tree{first.Clone(), first.Clone()}
	var inside, done sync.WaitGroup
	var got [2]foldEntry
	inside.Add(len(pair))
	for i, tr := range pair {
		done.Add(1)
		go func() {
			defer done.Done()
			got[i] = tr.fold(sub.Identity(), nil, func(s *interest.Summary) {
				inside.Done()
				inside.Wait()
				s.Add(sub)
			})
		}()
	}
	done.Wait()
	a, b := pair[0].FoldStats(), pair[1].FoldStats()
	if a.Recomputes+b.Recomputes != 1 || a.Hits+b.Hits != 1 {
		t.Errorf("one fold raced by two trees counted %d recomputes and %d hits; want 1 and 1",
			a.Recomputes+b.Recomputes, a.Hits+b.Hits)
	}
	if got[0].summary != got[1].summary || got[0].summary.Identity() == 0 {
		t.Error("the racing trees did not end up sharing one identified summary")
	}
	if got[0].lang != got[1].lang || got[0].lang == 0 {
		t.Error("the racing trees did not end up sharing one language name")
	}

	// And at large: eight clones fold the same population concurrently; the
	// fleet's recomputes must equal what one tree alone pays.
	members := make([]Member, space.Capacity())
	for i := range members {
		members[i] = Member{
			Addr: space.AddressAt(i),
			Sub:  interest.NewSubscription().Where("topic", interest.OneOf(fmt.Sprintf("t-%d", i%7))),
		}
	}
	alone, err := Build(Config{Space: space, R: 2}, members)
	if err != nil {
		t.Fatal(err)
	}
	clones := make([]*Tree, 8)
	for i := range clones {
		clones[i] = first.Clone()
	}
	for _, tr := range clones {
		done.Add(1)
		go func() {
			defer done.Done()
			if err := tr.ApplyDelta(Delta{Add: members}); err != nil {
				t.Error(err)
			}
		}()
	}
	done.Wait()
	var recomputes, folds uint64
	names := make(map[string]uint64)
	for _, tr := range clones {
		fs := tr.FoldStats()
		recomputes += fs.Recomputes
		folds += fs.Recomputes + fs.Hits
		var walk func(n *node)
		walk = func(n *node) {
			if n == nil {
				return
			}
			fp := n.summary.Fingerprint()
			if id, ok := names[fp]; ok && id != n.lang {
				t.Errorf("language %q is held under two names", fp)
			}
			names[fp] = n.lang
			for _, child := range n.children {
				walk(child)
			}
		}
		walk(tr.root)
	}
	want := alone.FoldStats()
	if recomputes != want.Recomputes || folds != uint64(len(clones))*(want.Recomputes+want.Hits) {
		t.Errorf("8 racing clones: %d recomputes of %d folds; want %d (one tree's) of %d",
			recomputes, folds, want.Recomputes, uint64(len(clones))*(want.Recomputes+want.Hits))
	}
}
