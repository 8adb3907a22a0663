package tree

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pmcast/internal/addr"
	"pmcast/internal/event"
	"pmcast/internal/interest"
)

// renderedView is one view of a tree as text: what each line exposes.
type renderedView struct {
	prefix string
	gen    uint64
	lines  string
}

// viewsOf renders every view of the tree, in prefix order.
func viewsOf(tr *Tree) []renderedView {
	var out []renderedView
	var walk func(p addr.Prefix)
	walk = func(p addr.Prefix) {
		v := tr.ViewOf(p, p.Len()+1)
		if v == nil {
			return
		}
		var sb strings.Builder
		for _, l := range v.Lines {
			fmt.Fprintf(&sb, " [%d n=%d %x %v]", l.Infix, l.Count, languageForm(l.Summary), l.Delegates)
		}
		out = append(out, renderedView{p.String(), v.Gen, sb.String()})
		for _, l := range v.Lines {
			walk(p.Child(l.Infix))
		}
	}
	walk(addr.Prefix{})
	return out
}

// renderViews joins viewsOf into one text, with the generations if asked for.
func renderViews(tr *Tree, gens bool) string {
	var sb strings.Builder
	for _, v := range viewsOf(tr) {
		if gens {
			fmt.Fprintf(&sb, "%s gen=%d:%s\n", v.prefix, v.gen, v.lines)
		} else {
			fmt.Fprintf(&sb, "%s:%s\n", v.prefix, v.lines)
		}
	}
	return sb.String()
}

// checkGenerations holds the trees — of one store — to what Generation
// promises: views of equal generation expose equal lines.
func checkGenerations(t *testing.T, trees []*Tree) {
	t.Helper()
	lines := make(map[uint64]string)
	for _, tr := range trees {
		for _, v := range viewsOf(tr) {
			if prev, ok := lines[v.gen]; ok && prev != v.lines {
				t.Errorf("generation %d names two views:%s (at %s) and%s", v.gen, v.lines, v.prefix, prev)
			}
			lines[v.gen] = v.lines
		}
	}
}

// classSubs is a small pool of subscriptions: few enough that subtrees
// regroup to recurring languages, enough that summaries differ.
func classSubs(n int) []interest.Subscription {
	subs := make([]interest.Subscription, n)
	for i := range subs {
		subs[i] = interest.NewSubscription().Where("b", interest.EqInt(int64(i)))
	}
	return subs
}

// TestClonesConvergeOnOneTrie is the hash-consing invariant: a trie node is
// a function of what lies beneath it, so clones that reach the same
// membership — by whatever order and batching of edits, on whatever
// goroutine — hold the same root, pointer for pointer, and a clone that
// applies a change some other tree of the store already digested finds every
// node built: its ApplyDelta allocates nothing. The clones read views as
// they go, so nodes they share build their view indexes concurrently; the
// converged clones, each holding its root view, hold one index. They also
// mint the store's disjunct numbers concurrently, and end up with one
// summary identity and one language name per distinct content.
func TestClonesConvergeOnOneTrie(t *testing.T) {
	space := addr.MustRegular(4, 3)
	subs := classSubs(5)
	r := rand.New(rand.NewSource(7))
	members := make([]Member, space.Capacity())
	for i := range members {
		members[i] = Member{Addr: space.AddressAt(i), Sub: subs[r.Intn(len(subs))]}
	}
	base, err := Build(Config{Space: space, R: 2}, members[:40])
	if err != nil {
		t.Fatal(err)
	}
	// The edits every clone applies: the rest of the fleet joins, a third of
	// the first forty redraw, a few leave. One change per address, so any
	// order and any batching reaches the same membership.
	var edits []Delta
	for _, m := range members[40:] {
		edits = append(edits, Delta{Add: []Member{m}})
	}
	for i := 0; i < 40; i += 3 {
		edits = append(edits, Delta{Update: []Member{{Addr: members[i].Addr, Sub: subs[(i+1)%len(subs)]}}})
	}
	for i := 1; i < 40; i += 6 { // never a multiple of 3
		edits = append(edits, Delta{Remove: []addr.Address{members[i].Addr}})
	}
	clones := make([]*Tree, 8)
	rootViews := make([]*View, len(clones))
	var wg sync.WaitGroup
	for k := range clones {
		clones[k] = base.Clone()
		order := rand.New(rand.NewSource(int64(k))).Perm(len(edits))
		wg.Add(1)
		go func(tr *Tree, batch int) {
			defer wg.Done()
			for len(order) > 0 {
				var d Delta
				for _, i := range order[:min(batch, len(order))] {
					d.Add = append(d.Add, edits[i].Add...)
					d.Update = append(d.Update, edits[i].Update...)
					d.Remove = append(d.Remove, edits[i].Remove...)
				}
				order = order[min(batch, len(order)):]
				if err := tr.ApplyDelta(d); err != nil {
					t.Error(err)
					return
				}
				tr.ViewOf(addr.Prefix{}, 1)
				tr.ViewAt(members[0].Addr, 2)
			}
			rootViews[k] = tr.ViewOf(addr.Prefix{}, 1)
		}(clones[k], 1+k) // batches of 1, 2, … 8 edits
	}
	wg.Wait()
	for k, tr := range clones[1:] {
		if tr.root != clones[0].root {
			t.Errorf("clone %d reached the same %d members through another order and holds another root", k+1, tr.Len())
		}
		if rootViews[k+1].Index != rootViews[0].Index {
			t.Errorf("clone %d holds the converged root's view with an index of its own", k+1)
		}
	}
	if base.root == clones[0].root || base.Len() != 40 {
		t.Error("the donor moved with its clones")
	}
	// The clones named what they folded under one mutex: the store holds one
	// identity and one language name per distinct content of its folds.
	st := base.store
	ids, langs := make(map[string]uint64), make(map[string]uint64)
	for _, table := range []map[foldKey]foldEntry{st.folds.hot, st.folds.cold} {
		for _, e := range table {
			of, lf := orderedForm(e.summary), languageForm(e.summary)
			if id, ok := ids[of]; ok && id != e.summary.Identity() {
				t.Errorf("summary %s holds identities %d and %d", e.summary, id, e.summary.Identity())
			}
			if name, ok := langs[lf]; ok && name != e.lang {
				t.Errorf("the language of %s holds names %d and %d", e.summary, name, e.lang)
			}
			ids[of], langs[lf] = e.summary.Identity(), e.lang
		}
	}
	if n := len(st.ids.hot) + len(st.ids.cold); n != len(ids) {
		t.Errorf("the store holds %d summary identities for %d distinct contents", n, len(ids))
	}
	if n := len(st.langs.hot) + len(st.langs.cold); n != len(langs) {
		t.Errorf("the store holds %d language names for %d distinct languages", n, len(langs))
	}

	// A change already digested: clone 0 toggles a member between two
	// subscriptions, then clone 1 — same membership, never saw the toggle —
	// follows.
	victim := members[63].Addr
	toggle := [2]Delta{
		{Update: []Member{{Addr: victim, Sub: subs[0]}}},
		{Update: []Member{{Addr: victim, Sub: subs[1]}}},
	}
	for _, d := range toggle {
		if err := clones[0].ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	turn := 0
	before := clones[1].FoldStats()
	allocs := testing.AllocsPerRun(20, func() {
		if err := clones[1].ApplyDelta(toggle[turn%2]); err != nil {
			t.Fatal(err)
		}
		turn++
	})
	after := clones[1].FoldStats()
	if allocs > 2 {
		t.Errorf("ApplyDelta of a state the store already holds allocates %.0f times; want O(1), ≤ 2", allocs)
	}
	if after.Recomputes != before.Recomputes || after.Hits == before.Hits {
		t.Errorf("following a digested change: recomputes %d→%d, hits %d→%d; want hits only",
			before.Recomputes, after.Recomputes, before.Hits, after.Hits)
	}
}

// TestFailedDeltaLeavesTreeUntouched: a batch that cannot be applied —
// whatever went before the offending edit — leaves members, every view with
// its generation, and the fold counters and cache occupancy exactly as they
// were. The batch is resolved against the tree before anything is built.
func TestFailedDeltaLeavesTreeUntouched(t *testing.T) {
	space := addr.MustRegular(3, 3)
	subs := classSubs(4)
	var members []Member
	for i := 0; i < space.Capacity(); i += 2 {
		members = append(members, Member{Addr: space.AddressAt(i), Sub: subs[i%len(subs)]})
	}
	tr, err := Build(Config{Space: space, R: 2}, members)
	if err != nil {
		t.Fatal(err)
	}
	fresh := interest.NewSubscription().Where("b", interest.EqInt(99)) // folds nothing has seen
	absent, present := space.AddressAt(1), space.AddressAt(2)
	good := Delta{
		Add:    []Member{{Addr: space.AddressAt(3), Sub: fresh}},
		Update: []Member{{Addr: space.AddressAt(4), Sub: fresh}},
		Remove: []addr.Address{space.AddressAt(6)},
	}
	with := func(f func(*Delta)) Delta {
		d := Delta{Add: append([]Member(nil), good.Add...), Update: append([]Member(nil), good.Update...),
			Remove: append([]addr.Address(nil), good.Remove...)}
		f(&d)
		return d
	}
	cases := []struct {
		name string
		d    Delta
		want error
	}{
		{"duplicate add", with(func(d *Delta) { d.Add = append(d.Add, Member{Addr: present, Sub: fresh}) }), ErrDuplicateMember},
		{"add twice in one batch", with(func(d *Delta) { d.Add = append(d.Add, d.Add[0]) }), ErrDuplicateMember},
		{"unknown update", with(func(d *Delta) { d.Update = append(d.Update, Member{Addr: absent, Sub: fresh}) }), ErrUnknownMember},
		{"unknown remove", with(func(d *Delta) { d.Remove = append(d.Remove, absent) }), ErrUnknownMember},
		{"remove twice in one batch", with(func(d *Delta) { d.Remove = append(d.Remove, d.Remove[0]) }), ErrUnknownMember},
		{"digit outside the space", with(func(d *Delta) { d.Add = append(d.Add, Member{Addr: addr.New(0, 3, 0), Sub: fresh}) }), ErrSpaceMismatch},
		{"remove outside the space", with(func(d *Delta) { d.Remove = append(d.Remove, addr.New(0, 7, 0)) }), ErrUnknownMember},
		{"update of a short address", with(func(d *Delta) { d.Update = append(d.Update, Member{Addr: addr.New(0, 0), Sub: fresh}) }), ErrUnknownMember},
	}
	membersBefore, viewsBefore, statsBefore := tr.Members(), renderViews(tr, true), tr.FoldStats()
	for _, c := range cases {
		if err := tr.ApplyDelta(c.d); !errors.Is(err, c.want) {
			t.Errorf("%s: error %v, want %v", c.name, err, c.want)
		}
		if got := tr.Members(); !reflect.DeepEqual(got, membersBefore) {
			t.Errorf("%s: members moved: %d, were %d", c.name, len(got), len(membersBefore))
		}
		if got := renderViews(tr, true); got != viewsBefore {
			t.Errorf("%s: views moved:\n%s\nwere:\n%s", c.name, got, viewsBefore)
		}
		if got := tr.FoldStats(); got != statsBefore {
			t.Errorf("%s: fold stats moved: %+v, were %+v", c.name, got, statsBefore)
		}
	}
	// The same edits without the offender apply.
	if err := tr.ApplyDelta(good); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(members) { // one joined, one left
		t.Errorf("%d members after the clean batch, want %d", tr.Len(), len(members))
	}
}

// rootGatedReach is MatchReach as defined while the root carried a summary:
// the descent was gated at the root too, by a fold of its children's
// summaries, built here afresh.
func rootGatedReach(tr *Tree, ev event.Event) int {
	var kids []*interest.Summary
	for _, child := range tr.root.children {
		if child != nil {
			kids = append(kids, child.summary)
		}
	}
	rootGate := interest.NewSummary()
	rootGate.Merge(kids...)
	var reach func(n *node, gate *interest.Summary) int
	reach = func(n *node, gate *interest.Summary) int {
		switch {
		case n == nil:
			return 0
		case n.member != nil:
			return 1
		case !gate.Matches(ev):
			return 0
		}
		total := 0
		for _, child := range n.children {
			if child != nil {
				total += reach(child, child.summary)
			}
		}
		return total
	}
	return reach(tr.root, rootGate)
}

// checkRootCarriesNoLine holds a tree to what dropping the root's summary
// rests on: the root holds no summary and no delegates, every interior node
// below it holds a summary that matches wherever one of its children's does
// (a merge only widens), and so MatchReach answers as rootGatedReach does.
func checkRootCarriesNoLine(t *testing.T, tr *Tree, evs []event.Event) {
	t.Helper()
	if tr.root.summary != nil || len(tr.root.delegates) != 0 {
		t.Errorf("root holds summary %v and delegates %v; want neither", tr.root.summary, tr.root.delegates)
	}
	var walk func(n *node, length int)
	walk = func(n *node, length int) {
		if n == nil || n.member != nil {
			return
		}
		if length > 0 && n.summary == nil {
			t.Errorf("interior node at length %d holds no summary", length)
			return
		}
		for _, child := range n.children {
			if child == nil {
				continue
			}
			for _, ev := range evs {
				if length > 0 && child.summary.Matches(ev) && !n.summary.Matches(ev) {
					t.Errorf("length %d: a child matches %v and its parent does not", length, ev)
				}
			}
			walk(child, length+1)
		}
	}
	walk(tr.root, 0)
	for _, ev := range evs {
		if got, want := tr.MatchReach(ev), rootGatedReach(tr, ev); got != want {
			t.Errorf("%v reaches %d, %d when gated at the root", ev, got, want)
		}
	}
}

// linesOf returns the summary and language name of every node below the
// root, leaves included.
func linesOf(tr *Tree) ([]*interest.Summary, []uint64) {
	var sums []*interest.Summary
	var langs []uint64
	var walk func(n *node)
	walk = func(n *node) {
		for _, child := range n.children {
			if child != nil {
				sums, langs = append(sums, child.summary), append(langs, child.lang)
				walk(child)
			}
		}
	}
	walk(tr.root)
	return sums, langs
}

// lineage is one tree and the store it shares with its clones, folded by
// FuzzApplyDeltaMatchesBuild. A store-only lineage forgets every successor
// memo of a tree before the tree folds, so the store answers every lookup.
type lineage struct {
	tr        *Tree
	storeOnly bool
}

// forgetSuccessors clears the successor memo of every node of the trie.
func forgetSuccessors(n *node) {
	if n == nil {
		return
	}
	n.next.Store(nil)
	for _, child := range n.children {
		forgetSuccessors(child)
	}
}

// foldCounts is what one fold added to a tree's meters.
type foldCounts struct{ recomputes, hits uint64 }

// apply folds d into tr and returns what it counted.
func (l *lineage) apply(t *testing.T, tr *Tree, d Delta) foldCounts {
	t.Helper()
	if l.storeOnly {
		forgetSuccessors(tr.root)
	}
	before := foldCounts{tr.foldRecomputes, tr.foldHits}
	if err := tr.ApplyDelta(d); err != nil {
		t.Fatalf("valid batch %+v refused: %v", d, err)
	}
	return foldCounts{tr.foldRecomputes - before.recomputes, tr.foldHits - before.hits}
}

// fold applies one batch three times: to the lineage's tree, to a sibling
// clone taken before it (the memo path: every node it reaches was just
// rebuilt the same way), and to another sibling after a forced sweep of the
// node table (every memo must defer to the store). Each sibling must end up
// with the tree's trie, on the same root while the store holds it: when no
// sweep ran from the tree's fold to the sibling's end, beyond the one forced.
func (l *lineage) fold(t *testing.T, d Delta, space addr.Space) [3]foldCounts {
	t.Helper()
	sibs := [2]*Tree{l.tr.Clone(), l.tr.Clone()}
	nodes := &l.tr.store.nodes
	var c [3]foldCounts
	s0 := nodes.sweeps.Load()
	c[0] = l.apply(t, l.tr, d)
	s1 := nodes.sweeps.Load()
	c[1] = l.apply(t, sibs[0], d)
	if nodes.sweeps.Load() == s0 && sibs[0].root != l.tr.root {
		t.Errorf("storeOnly=%v: a sibling folded the batch to another root while the store held the tree's", l.storeOnly)
	}
	l.tr.store.mu.Lock()
	nodes.sweep()
	l.tr.store.mu.Unlock()
	s2 := nodes.sweeps.Load()
	c[2] = l.apply(t, sibs[1], d)
	if s1 == s0 && nodes.sweeps.Load() == s2 && sibs[1].root != l.tr.root {
		t.Errorf("storeOnly=%v: after a sweep a sibling folded the batch to another root while the store held the tree's", l.storeOnly)
	}
	for _, sib := range sibs {
		compareTries(t, sib, l.tr, addr.Prefix{}, space)
	}
	return c
}

// FuzzApplyDeltaMatchesBuild folds arbitrary add/update/remove batches
// through a lineage of clones — the input picks the edits, where the batches
// split and where the tree is handed to a clone — and holds the result
// against Build over the final member set: members, and at every prefix the
// count, delegates, summary, compiled language, view lines and reach. After
// every batch the root must carry no line (checkRootCarriesNoLine), for
// events on each subscribed value and one nothing subscribes to, and the
// store's number keys, summary identities and language names must each
// stand for one content across the lineage, with equal keys exactly where
// the old fingerprint strings were equal (keyNames.check). Every batch is
// also folded by sibling clones, through the successor memo and after a
// forced sweep (lineage.fold), and the whole input again by a store-only
// lineage over a store of its own: a memo answer is one the store would
// give, counted as the store hit it replaces, so the two lineages count
// alike, fold for fold.
func FuzzApplyDeltaMatchesBuild(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{200, 3, 200, 3, 201, 3, 77, 255, 0, 0, 129, 64, 31, 31, 31})
	f.Add([]byte("every process of a subgroup derives the same delegates without explicit agreement"))
	f.Add([]byte{})
	// Folds a sibling after a forced sweep: a memo that ignored the sweep
	// would answer nodes the store holds cold without promoting them, and
	// the lineages would count apart.
	f.Add([]byte("A07X0A8B1CB0"))
	space := addr.MustRegular(3, 3)
	classes := classSubs(7)
	// Beside the classes, keyPool's odd shapes: match-all, unsatisfiable,
	// string sets past 64 values, and "b" under other kinds.
	subs := append(classes, keyPool()[:6]...)
	evs := make([]event.Event, 0, len(classes)+4)
	for b := 0; b <= len(classes); b++ {
		evs = append(evs, event.NewBuilder().Int("b", int64(b)).Build(event.ID{Origin: "fz", Seq: uint64(b)}))
	}
	evs = append(evs,
		event.NewBuilder().Str("b", "v01").Build(event.ID{Origin: "fz", Seq: 100}),
		event.NewBuilder().Str("b", "v70").Build(event.ID{Origin: "fz", Seq: 101}),
		event.NewBuilder().Str("b", "x").Float("c", 2).Build(event.ID{Origin: "fz", Seq: 102}),
		event.NewBuilder().Bool("b", true).Build(event.ID{Origin: "fz", Seq: 103}))
	f.Fuzz(func(t *testing.T, in []byte) {
		// A small store bound: the lineage also crosses sweeps.
		var lines [2]lineage
		for i := range lines {
			tr, err := New(Config{Space: space, R: 2, foldCacheBound: 16})
			if err != nil {
				t.Fatal(err)
			}
			lines[i] = lineage{tr: tr, storeOnly: i == 1}
		}
		model := make(map[int]interest.Subscription)
		names := newKeyNames()
		var d Delta
		touched := make(map[int]bool) // one edit per address and batch
		flush := func() {
			memo, store := lines[0].fold(t, d, space), lines[1].fold(t, d, space)
			if memo != store {
				t.Errorf("batch %+v counted %v through the memo, %v by the store alone", d, memo, store)
			}
			tr := lines[0].tr
			checkRootCarriesNoLine(t, tr, evs)
			sums, langs := linesOf(tr)
			names.check(t, tr.store, sums, langs)
			d, touched = Delta{}, make(map[int]bool)
		}
		for i := 0; i+1 < len(in); i += 2 {
			idx, arg := int(in[i])%space.Capacity(), int(in[i+1])
			if touched[idx] {
				flush()
			}
			touched[idx] = true
			a, sub := space.AddressAt(idx), subs[arg%len(subs)]
			_, present := model[idx]
			switch {
			case !present:
				d.Add = append(d.Add, Member{Addr: a, Sub: sub})
				model[idx] = sub
			case arg%3 == 0:
				d.Remove = append(d.Remove, a)
				delete(model, idx)
			default:
				d.Update = append(d.Update, Member{Addr: a, Sub: sub})
				model[idx] = sub
			}
			if arg&0x10 != 0 {
				flush()
			}
			if arg&0x20 != 0 {
				flush()
				for i := range lines {
					lines[i].tr = lines[i].tr.Clone()
				}
			}
		}
		flush()
		members := make([]Member, 0, len(model))
		for idx := 0; idx < space.Capacity(); idx++ {
			if sub, ok := model[idx]; ok {
				members = append(members, Member{Addr: space.AddressAt(idx), Sub: sub})
			}
		}
		ref, err := Build(Config{Space: space, R: 2}, members)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range lines {
			tr := l.tr
			checkMembers(t, tr, model, space)
			compareTries(t, tr, ref, addr.Prefix{}, space)
			if got, want := renderViews(tr, false), renderViews(ref, false); got != want {
				t.Errorf("storeOnly=%v views:\n%s\nfrom scratch:\n%s", l.storeOnly, got, want)
			}
			for b, ev := range evs {
				if got, want := tr.MatchReach(ev), ref.MatchReach(ev); got != want {
					t.Errorf("storeOnly=%v: b=%d reaches %d, from scratch %d", l.storeOnly, b, got, want)
				}
			}
		}
	})
}
