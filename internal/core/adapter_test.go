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

// leafLineWords is the string domain of TestLeafLineDeliversWhatTheSubscriptionMatches:
// more values than one index word holds bits for.
var leafLineWords = func() []string {
	ws := make([]string, 70)
	for i := range ws {
		ws[i] = fmt.Sprintf("w%02d", i)
	}
	return ws
}()

// randLeafSub draws a conjunction over a small domain — "b" numeric, "s" a
// string set, "f" a boolean — so random events match it often.
func randLeafSub(r *rand.Rand) interest.Subscription {
	sub := interest.NewSubscription()
	switch r.Intn(4) {
	case 0:
		sub = sub.Where("b", interest.EqInt(int64(r.Intn(4))))
	case 1:
		sub = sub.Where("b", interest.Between(float64(r.Intn(3)), float64(1+r.Intn(4))))
	case 2:
		sub = sub.Where("b", interest.Gt(float64(r.Intn(4))))
	}
	if r.Intn(2) == 0 {
		set := make([]string, 1+r.Intn(3))
		for i := range set {
			set[i] = leafLineWords[r.Intn(4)]
		}
		sub = sub.Where("s", interest.OneOf(set...))
	}
	if r.Intn(3) == 0 {
		sub = sub.Where("f", interest.IsBool(r.Intn(2) == 0))
	}
	return sub
}

// randLeafEvent draws an event over the same domain, "b" now and then a
// string, so kinds cross.
func randLeafEvent(r *rand.Rand, seq uint64) event.Event {
	b := event.NewBuilder()
	switch r.Intn(4) {
	case 0:
		b.Int("b", int64(r.Intn(5)))
	case 1:
		b.Float("b", float64(r.Intn(50))/10)
	case 2:
		b.Str("b", "w00")
	}
	if r.Intn(4) != 0 {
		b.Str("s", leafLineWords[r.Intn(len(leafLineWords))%6])
	}
	if r.Intn(2) == 0 {
		b.Bool("f", r.Intn(2) == 0)
	}
	return b.Build(event.ID{Origin: "leaf", Seq: seq})
}

// TestLeafLineDeliversWhatTheSubscriptionMatches: the delivery predicate a
// process is built with is its own line of its depth-d view, and it answers
// exactly what the member's subscription does — on a fresh build, after the
// member redraws its subscription (a new leaf view), and after a change
// under another subtree that leaves the leaf view, and with it the
// predicate, as it was. The subscriptions include match-all, an
// unsatisfiable criterion and a set of more than 64 strings.
func TestLeafLineDeliversWhatTheSubscriptionMatches(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	space := addr.MustRegular(3, 3)
	members := make([]tree.Member, space.Capacity())
	for i := range members {
		members[i] = tree.Member{Addr: space.AddressAt(i), Sub: randLeafSub(r)}
	}
	tr, err := tree.Build(tree.Config{Space: space, R: 2}, members)
	if err != nil {
		t.Fatal(err)
	}
	self, foreign := space.AddressAt(4), space.AddressAt(space.Capacity()-1)
	cfg, d := Config{F: 2, C: 3}, space.Depth()
	special := []interest.Subscription{
		interest.NewSubscription(),
		interest.NewSubscription().Where("s", interest.OneOf()),
		interest.NewSubscription().Where("s", interest.OneOf(leafLineWords...)),
		interest.NewSubscription().Where("s", interest.OneOf(leafLineWords[5:]...)).Where("b", interest.Gt(1)),
	}
	draw := func(trial int) interest.Subscription {
		if trial < len(special) {
			return special[trial]
		}
		if r.Intn(5) == 0 {
			return special[r.Intn(len(special))]
		}
		return randLeafSub(r)
	}
	seq, delivered := uint64(0), 0
	check := func(p *Process, sub interest.Subscription, path string) {
		t.Helper()
		for range 200 {
			seq++
			ev := randLeafEvent(r, seq)
			got, want := p.selfMatch(ev), sub.Matches(ev)
			if got != want {
				t.Fatalf("%s: the predicate answers %v for %s, the subscription %s answers %v", path, got, ev, sub, want)
			}
			if got {
				delivered++
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		sub := draw(trial)
		if err := tr.UpdateSubscription(self, sub); err != nil {
			t.Fatal(err)
		}
		fresh, err := BuildProcess(tr, self, cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(fresh, sub, "fresh build")

		redrawn := draw(len(special) + trial)
		if err := tr.UpdateSubscription(self, redrawn); err != nil {
			t.Fatal(err)
		}
		moved, err := RebuildProcess(tr, self, cfg, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if redrawn.Identity() != sub.Identity() && moved.views[d-1] == fresh.views[d-1] {
			t.Fatalf("trial %d: the leaf view survived a redraw from %s to %s", trial, sub, redrawn)
		}
		check(moved, redrawn, "redraw")

		if err := tr.UpdateSubscription(foreign, randLeafSub(r)); err != nil {
			t.Fatal(err)
		}
		kept, err := RebuildProcess(tr, self, cfg, moved)
		if err != nil {
			t.Fatal(err)
		}
		if kept.views[d-1] != moved.views[d-1] {
			t.Fatalf("trial %d: a change under another subtree moved the leaf view", trial)
		}
		check(kept, redrawn, "unrelated change")
	}
	if total := int(seq); delivered < total/10 || delivered > total*9/10 {
		t.Errorf("%d of %d events delivered: the draws do not exercise both answers", delivered, total)
	}
}
