package tree

import (
	"fmt"
	"strings"
	"testing"

	"pmcast/internal/addr"
	"pmcast/internal/event"
	"pmcast/internal/interest"
)

// fullTree builds a fully populated regular tree with arity a, depth d,
// redundancy r. Each member subscribes to b = <its index mod 7>.
func fullTree(t *testing.T, a, d, r int) *Tree {
	t.Helper()
	space := addr.MustRegular(a, d)
	members := make([]Member, 0, space.Capacity())
	for i := 0; i < space.Capacity(); i++ {
		members = append(members, Member{
			Addr: space.AddressAt(i),
			Sub:  interest.NewSubscription().Where("b", interest.EqInt(int64(i%7))),
		})
	}
	tr, err := Build(Config{Space: space, R: r}, members)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// prefix builds the prefix with the given digits.
func prefix(digits ...int) addr.Prefix {
	var p addr.Prefix
	for _, d := range digits {
		p = p.Child(d)
	}
	return p
}

func TestBuildValidation(t *testing.T) {
	space := addr.MustRegular(3, 2)
	if _, err := New(Config{Space: space, R: 0}); err == nil {
		t.Error("R=0 accepted")
	}
	if _, err := New(Config{R: 3}); err == nil {
		t.Error("zero space accepted")
	}
	tr, err := New(Config{Space: space, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(Member{Addr: addr.New(5, 0)}); err == nil {
		t.Error("out-of-space address accepted")
	}
	if err := tr.Add(Member{Addr: addr.New(1, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(Member{Addr: addr.New(1, 1)}); err == nil {
		t.Error("duplicate accepted")
	}
}

func TestSmallestAddressElection(t *testing.T) {
	tr := fullTree(t, 3, 2, 2)
	// Leaf subgroup 1.*: members 1.0,1.1,1.2 → delegates 1.0,1.1.
	dels := tr.Delegates(prefix(1))
	if len(dels) != 2 {
		t.Fatalf("delegates = %v", dels)
	}
	if dels[0].String() != "1.0" || dels[1].String() != "1.1" {
		t.Errorf("delegates = %v, want [1.0 1.1]", dels)
	}
	// The depth-1 view: one line per subgroup 0.*, 1.*, 2.*, each carrying
	// its own two smallest addresses — the root group is their union.
	var lines []string
	for _, l := range tr.ViewOf(addr.Prefix{}, 1).Lines {
		lines = append(lines, fmt.Sprint(l.Delegates))
	}
	if got := strings.Join(lines, " "); got != "[0.0 0.1] [1.0 1.1] [2.0 2.1]" {
		t.Errorf("depth-1 line delegates = %s", got)
	}
}

func TestCounts(t *testing.T) {
	tr := fullTree(t, 3, 3, 2)
	if got := tr.Count(addr.Prefix{}); got != 27 {
		t.Errorf("root count = %d", got)
	}
	if got := tr.Count(prefix(1)); got != 9 {
		t.Errorf("subtree count = %d", got)
	}
	if got := tr.Count(prefix(1, 2)); got != 3 {
		t.Errorf("leaf group count = %d", got)
	}
	if got := tr.Count(prefix(2, 2, 2).Child(0)); got != 0 {
		t.Errorf("nonexistent prefix count = %d", got)
	}
	if tr.Len() != 27 {
		t.Errorf("len = %d", tr.Len())
	}
}

func TestViewStructure(t *testing.T) {
	tr := fullTree(t, 3, 3, 2)
	p := addr.New(1, 2, 0)

	// Depth 1 view: root group, 3 lines (subtrees 0,1,2), R delegates each.
	v1 := tr.ViewAt(p, 1)
	if len(v1.Lines) != 3 || v1.GroupSize() != 6 {
		t.Fatalf("depth1: lines=%d size=%d", len(v1.Lines), v1.GroupSize())
	}
	if v1.LeafLevel {
		t.Error("depth1 marked leaf")
	}
	// Depth 3 view: leaf group 1.2.*, 3 single-process lines.
	v3 := tr.ViewAt(p, 3)
	if len(v3.Lines) != 3 || v3.GroupSize() != 3 {
		t.Fatalf("depth3: lines=%d size=%d", len(v3.Lines), v3.GroupSize())
	}
	if !v3.LeafLevel {
		t.Error("depth3 not marked leaf")
	}
	for _, l := range v3.Lines {
		if len(l.Delegates) != 1 || l.Count != 1 {
			t.Errorf("leaf line %+v", l)
		}
	}
	// All processes sharing the prefix share the view.
	q := addr.New(1, 2, 2)
	vq := tr.ViewAt(q, 3)
	if vq.Prefix.Key() != v3.Prefix.Key() {
		t.Error("prefix-sharing processes got different views")
	}
	// Out-of-range depths.
	if tr.ViewAt(p, 0) != nil || tr.ViewAt(p, 4) != nil {
		t.Error("out-of-range views not nil")
	}
}

func TestViewSizesMatchEq12(t *testing.T) {
	// Regular tree: m_i = R·a for 1 ≤ i < d, m_d = a (Eq. 12).
	a, d, r := 4, 3, 2
	tr := fullTree(t, a, d, r)
	p := addr.New(2, 1, 3)
	for depth := 1; depth <= d; depth++ {
		v := tr.ViewAt(p, depth)
		want := r * a
		if depth == d {
			want = a
		}
		if got := v.GroupSize(); got != want {
			t.Errorf("depth %d group size = %d, want %d", depth, got, want)
		}
	}
	// Eq. 2 total: m = R·a·(d−1) + a.
	wantTotal := r*a*(d-1) + a
	if got := tr.KnownProcesses(p); got != wantTotal {
		t.Errorf("known processes = %d, want %d", got, wantTotal)
	}
}

func TestIsDelegateAndTopDepth(t *testing.T) {
	tr := fullTree(t, 3, 3, 2)
	// 0.0.0 is the smallest address: delegate at every depth, top depth 1.
	top := addr.New(0, 0, 0)
	for depth := 1; depth <= 3; depth++ {
		if !tr.IsDelegate(top, depth) {
			t.Errorf("0.0.0 not delegate at depth %d", depth)
		}
	}
	if tr.TopDepth(top) != 1 {
		t.Errorf("TopDepth(0.0.0) = %d", tr.TopDepth(top))
	}
	// 2.2.2 is the largest: never a delegate above depth d.
	bottom := addr.New(2, 2, 2)
	if tr.IsDelegate(bottom, 1) || tr.IsDelegate(bottom, 2) {
		t.Error("2.2.2 should not be a delegate above leaf level")
	}
	if !tr.IsDelegate(bottom, 3) {
		t.Error("every member appears at depth d")
	}
	if tr.TopDepth(bottom) != 3 {
		t.Errorf("TopDepth(2.2.2) = %d", tr.TopDepth(bottom))
	}
	// 1.0.0 is the smallest address of subtree 1, so it represents subtree 1
	// in the root group: top depth 1.
	if !tr.IsDelegate(addr.New(1, 0, 0), 1) {
		t.Error("1.0.0 should represent subtree 1 at the root")
	}
	// 1.1.0 is a delegate of leaf group 1.1 (depth-2 group member) but not
	// among subtree 1's delegates (1.0.0, 1.0.1 are smaller).
	mid := addr.New(1, 1, 0)
	if tr.IsDelegate(mid, 1) {
		t.Error("1.1.0 unexpectedly a root-group member")
	}
	if !tr.IsDelegate(mid, 2) {
		t.Error("1.1.0 should represent leaf group 1.1 at depth 2")
	}
	if tr.TopDepth(mid) != 2 {
		t.Errorf("TopDepth(1.1.0) = %d", tr.TopDepth(mid))
	}
}

func TestSummariesAggregateUpward(t *testing.T) {
	space := addr.MustRegular(2, 2)
	members := []Member{
		{Addr: addr.New(0, 0), Sub: interest.NewSubscription().Where("b", interest.EqInt(1))},
		{Addr: addr.New(0, 1), Sub: interest.NewSubscription().Where("b", interest.EqInt(2))},
		{Addr: addr.New(1, 0), Sub: interest.NewSubscription().Where("b", interest.EqInt(3))},
		{Addr: addr.New(1, 1), Sub: interest.NewSubscription().Where("b", interest.EqInt(4))},
	}
	tr, err := Build(Config{Space: space, R: 1}, members)
	if err != nil {
		t.Fatal(err)
	}
	evB := func(v int64) event.Event {
		return event.NewBuilder().Int("b", v).Build(event.ID{})
	}
	// Subtree 0 summary covers b∈{1,2} but not 3.
	s0 := tr.Summary(prefix(0))
	if !s0.Matches(evB(1)) || !s0.Matches(evB(2)) || s0.Matches(evB(3)) {
		t.Errorf("subtree 0 summary wrong: %v", s0)
	}
	// The depth-1 view's lines together cover b=1…4, each value on the line
	// of the subgroup that subscribed to it, and nothing else.
	v1 := tr.ViewOf(addr.Prefix{}, 1)
	if len(v1.Lines) != 2 {
		t.Fatalf("depth-1 view has %d lines, want 2", len(v1.Lines))
	}
	for v := int64(1); v <= 4; v++ {
		for _, l := range v1.Lines {
			if want := l.Infix == int(v-1)/2; l.Matches(evB(v)) != want {
				t.Errorf("depth-1 line %d matches b=%d: %v, want %v (%v)", l.Infix, v, !want, want, l.Summary)
			}
		}
	}
	for _, l := range v1.Lines {
		if l.Matches(evB(9)) {
			t.Errorf("depth-1 line %d over-matches: %v", l.Infix, l.Summary)
		}
	}
	// The root is the depth-1 view's prefix and no view's line: it holds no
	// summary and elects no delegates.
	if s := tr.Summary(addr.Prefix{}); s != nil {
		t.Errorf("root summary = %v, want none", s)
	}
	if d := tr.Delegates(addr.Prefix{}); len(d) != 0 {
		t.Errorf("root delegates = %v, want none", d)
	}
}

func TestRemoveReelectsDelegates(t *testing.T) {
	tr := fullTree(t, 3, 2, 2)
	// Initially leaf group 0.*: delegates 0.0, 0.1.
	if err := tr.Remove(addr.New(0, 0)); err != nil {
		t.Fatal(err)
	}
	dels := tr.Delegates(prefix(0))
	if len(dels) != 2 || dels[0].String() != "0.1" || dels[1].String() != "0.2" {
		t.Errorf("after removal delegates = %v", dels)
	}
	// No line of the depth-1 view may list 0.0 any more.
	for _, l := range tr.ViewOf(addr.Prefix{}, 1).Lines {
		for _, d := range l.Delegates {
			if d.String() == "0.0" {
				t.Errorf("removed member still a delegate of depth-1 line %d", l.Infix)
			}
		}
	}
	if _, ok := tr.Member(addr.New(0, 0)); ok {
		t.Error("member still present after Remove")
	}
	if err := tr.Remove(addr.New(0, 0)); err == nil {
		t.Error("double remove accepted")
	}
}

func TestRemoveWholeSubtreePrunes(t *testing.T) {
	tr := fullTree(t, 2, 2, 1)
	for _, a := range []addr.Address{addr.New(1, 0), addr.New(1, 1)} {
		if err := tr.Remove(a); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Count(prefix(1)) != 0 {
		t.Error("emptied subtree still counted")
	}
	v := tr.ViewOf(addr.Prefix{}, 1)
	if len(v.Lines) != 1 {
		t.Errorf("root view lines = %d, want 1", len(v.Lines))
	}
	if tr.Count(addr.Prefix{}) != 2 {
		t.Errorf("root count = %d", tr.Count(addr.Prefix{}))
	}
}

func TestUpdateSubscription(t *testing.T) {
	tr := fullTree(t, 2, 2, 1)
	newSub := interest.NewSubscription().Where("b", interest.EqInt(999))
	if err := tr.UpdateSubscription(addr.New(1, 1), newSub); err != nil {
		t.Fatal(err)
	}
	ev := event.NewBuilder().Int("b", 999).Build(event.ID{})
	v1 := tr.ViewOf(addr.Prefix{}, 1)
	for _, l := range v1.Lines {
		if l.Matches(ev) != (l.Infix == 1) {
			t.Errorf("depth-1 line %d matches b=999: %v; only line 1 should", l.Infix, l.Matches(ev))
		}
	}
	if err := tr.UpdateSubscription(addr.New(0, 0).Prefix(1).Address(9, 9), newSub); err == nil {
		t.Error("update of unknown member accepted")
	}
}

func TestSusceptibleAndRate(t *testing.T) {
	// Two of four leaf subgroups interested.
	space := addr.MustRegular(2, 2)
	subFor := func(v int64) interest.Subscription {
		return interest.NewSubscription().Where("b", interest.EqInt(v))
	}
	members := []Member{
		{Addr: addr.New(0, 0), Sub: subFor(1)},
		{Addr: addr.New(0, 1), Sub: subFor(1)},
		{Addr: addr.New(1, 0), Sub: subFor(2)},
		{Addr: addr.New(1, 1), Sub: subFor(2)},
	}
	tr, err := Build(Config{Space: space, R: 1}, members)
	if err != nil {
		t.Fatal(err)
	}
	ev := event.NewBuilder().Int("b", 1).Build(event.ID{})
	v := tr.ViewOf(addr.Prefix{}, 1)
	var sus []addr.Address
	for _, l := range v.Lines {
		if l.Matches(ev) {
			sus = append(sus, l.Delegates...)
		}
	}
	if len(sus) != 1 || sus[0].String() != "0.0" {
		t.Errorf("susceptible = %v", sus)
	}
	if got := v.MatchingRate(ev); got != 0.5 {
		t.Errorf("rate = %g, want 0.5", got)
	}
}

func TestViewsStack(t *testing.T) {
	tr := fullTree(t, 3, 3, 2)
	a := addr.New(1, 1, 1)
	for depth := 1; depth <= tr.Depth(); depth++ {
		v := tr.ViewAt(a, depth)
		if v == nil {
			t.Fatalf("view %d nil", depth)
		}
		if v.Depth != depth {
			t.Errorf("view %d depth = %d", depth, v.Depth)
		}
	}
	if p := tr.ViewAt(a, 2).Prefix; p.String() != "1" {
		t.Errorf("depth2 prefix = %s", p)
	}
}

func TestRenderViewContainsPaperShape(t *testing.T) {
	tr := fullTree(t, 2, 2, 1)
	out := RenderView(tr.ViewOf(prefix(0), 2))
	if out == "" || out == "<no view>" {
		t.Fatalf("render = %q", out)
	}
	if RenderView(nil) != "<no view>" {
		t.Error("nil render wrong")
	}
}

func TestMembersSorted(t *testing.T) {
	tr := fullTree(t, 3, 2, 1)
	ms := tr.Members()
	if len(ms) != 9 {
		t.Fatalf("members = %d", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if !ms[i-1].Addr.Less(ms[i].Addr) {
			t.Fatal("members not sorted")
		}
	}
}

func TestPartialPopulationViews(t *testing.T) {
	// Irregular population: only some subgroups exist; views skip missing
	// lines and delegates degrade gracefully when |subgroup| < R.
	space := addr.MustRegular(4, 2)
	members := []Member{
		{Addr: addr.New(0, 0)},
		{Addr: addr.New(2, 1)},
		{Addr: addr.New(2, 3)},
	}
	tr, err := Build(Config{Space: space, R: 3}, members)
	if err != nil {
		t.Fatal(err)
	}
	v := tr.ViewOf(addr.Prefix{}, 1)
	if len(v.Lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(v.Lines))
	}
	if l0 := v.Lines[0]; l0.Infix != 0 || len(l0.Delegates) != 1 {
		t.Errorf("subgroup 0 line %d delegates = %v", l0.Infix, l0.Delegates)
	}
	if l2 := v.Lines[1]; l2.Infix != 2 || len(l2.Delegates) != 2 {
		t.Errorf("subgroup 2 line %d delegates = %v", l2.Infix, l2.Delegates)
	}
	if tr.Count(addr.Prefix{}) != 3 {
		t.Errorf("count = %d", tr.Count(addr.Prefix{}))
	}
}

// TestCloneCostIndependentOfSize: the trie is the only member index and it
// is immutable, so Clone has nothing to freeze — four updates and a Clone
// allocate the same in a 46-member tree as in a 4096-member one.
// Both populations live in one 16×16×16 space and keep every group on the
// victim's root path full, so the updates themselves cost the same; only a
// Clone that copies per-member state can tell the trees apart.
func TestCloneCostIndependentOfSize(t *testing.T) {
	space := addr.MustRegular(16, 3)
	subs := [2]interest.Subscription{
		interest.NewSubscription().Where("b", interest.EqInt(0)),
		interest.NewSubscription().Where("b", interest.EqInt(1)),
	}
	mutateAndClone := func(keep func(addr.Address) bool) (int, float64) {
		var members []Member
		for i := 0; i < space.Capacity(); i++ {
			if a := space.AddressAt(i); keep(a) {
				members = append(members, Member{Addr: a, Sub: subs[0]})
			}
		}
		tr, err := Build(Config{Space: space, R: 2}, members)
		if err != nil {
			t.Fatal(err)
		}
		victim := space.AddressAt(0)
		return len(members), testing.AllocsPerRun(20, func() {
			for k := 0; k < 4; k++ {
				if err := tr.UpdateSubscription(victim, subs[(k+1)%2]); err != nil {
					t.Fatal(err)
				}
			}
			tr.Clone()
		})
	}
	nSmall, small := mutateAndClone(func(a addr.Address) bool {
		zeros := 0
		for i := 1; i <= a.Depth(); i++ {
			if a.Digit(i) == 0 {
				zeros++
			}
		}
		return zeros >= a.Depth()-1 // 0.0.x, 0.x.0 and x.0.0
	})
	nLarge, large := mutateAndClone(func(addr.Address) bool { return true })
	if nSmall != 46 || nLarge != 4096 {
		t.Fatalf("populations %d and %d; want 46 and 4096", nSmall, nLarge)
	}
	if small != large {
		t.Errorf("4 updates + Clone allocate %.0f over %d members, %.0f over %d; want equal",
			small, nSmall, large, nLarge)
	}
}
