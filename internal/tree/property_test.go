package tree

import (
	"math/rand"
	"slices"
	"testing"

	"pmcast/internal/addr"
	"pmcast/internal/event"
	"pmcast/internal/interest"
)

// randomPopulation draws a random sparse member set over a random space.
func randomPopulation(r *rand.Rand) (addr.Space, []Member) {
	d := 1 + r.Intn(3)
	a := 2 + r.Intn(5)
	space := addr.MustRegular(a, d)
	count := 1 + r.Intn(space.Capacity())
	perm := r.Perm(space.Capacity())
	members := make([]Member, 0, count)
	for _, idx := range perm[:count] {
		members = append(members, Member{
			Addr: space.AddressAt(idx),
			Sub:  interest.NewSubscription().Where("b", interest.EqInt(int64(r.Intn(6)))),
		})
	}
	return space, members
}

// TestTreeInvariants checks structural invariants over random populations:
// counts partition, delegates live in their subtree and follow the election
// order, and subtree summaries never miss a member interest.
func TestTreeInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 120; trial++ {
		space, members := randomPopulation(r)
		rr := 1 + r.Intn(3)
		tr, err := Build(Config{Space: space, R: rr}, members)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != len(members) {
			t.Fatalf("trial %d: len %d != %d", trial, tr.Len(), len(members))
		}
		checkSubtree(t, tr, addr.Prefix{}, members, rr)

		// Summary soundness at every member's every depth: if some member
		// under a line matches the event, the line summary must match.
		ev := event.NewBuilder().Int("b", int64(r.Intn(6))).Build(event.ID{Origin: "q", Seq: 1})
		for _, m := range members[:min(len(members), 5)] {
			for depth := 1; depth <= tr.Depth(); depth++ {
				v := tr.ViewAt(m.Addr, depth)
				if v == nil {
					t.Fatalf("trial %d: member %s missing view %d", trial, m.Addr, depth)
				}
				for _, line := range v.Lines {
					linePrefix := v.Prefix.Child(line.Infix)
					anyMatch := false
					for _, mm := range members {
						if linePrefix.Contains(mm.Addr) && mm.Sub.Matches(ev) {
							anyMatch = true
							break
						}
					}
					if anyMatch && !line.Matches(ev) {
						t.Fatalf("trial %d: summary false negative at %s depth %d line %d",
							trial, m.Addr, depth, line.Infix)
					}
				}
			}
		}
	}
}

// checkSubtree validates counts and delegates recursively.
func checkSubtree(t *testing.T, tr *Tree, p addr.Prefix, members []Member, r int) {
	t.Helper()
	var inside []addr.Address
	for _, m := range members {
		if p.Contains(m.Addr) {
			inside = append(inside, m.Addr)
		}
	}
	if got := tr.Count(p); got != len(inside) {
		t.Fatalf("count(%s) = %d, want %d", p, got, len(inside))
	}
	dels := tr.Delegates(p)
	wantDel := min(r, len(inside))
	if p.Len() == 0 {
		wantDel = 0 // the root is no view's line: it elects no one
	}
	if len(dels) != wantDel {
		t.Fatalf("delegates(%s) = %d, want %d", p, len(dels), wantDel)
	}
	// Smallest-address election: delegates are exactly the r smallest
	// members of the subtree.
	slices.SortFunc(inside, addr.Address.Compare)
	for i, d := range dels {
		if !d.Equal(inside[i]) {
			t.Fatalf("delegate %d of %s = %s, want %s", i, p, d, inside[i])
		}
	}
	if p.Len() < tr.Depth() {
		seen := map[int]bool{}
		for _, a := range inside {
			digit := a.Digit(p.Len() + 1)
			if !seen[digit] {
				seen[digit] = true
				checkSubtree(t, tr, p.Child(digit), members, r)
			}
		}
	}
}

// TestAddRemoveRoundTrip drains a random tree member by member, checking
// consistency after every removal.
func TestAddRemoveRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		space, members := randomPopulation(r)
		tr, err := Build(Config{Space: space, R: 2}, members)
		if err != nil {
			t.Fatal(err)
		}
		perm := r.Perm(len(members))
		for k, idx := range perm {
			if err := tr.Remove(members[idx].Addr); err != nil {
				t.Fatalf("trial %d remove %d: %v", trial, k, err)
			}
			if tr.Len() != len(members)-k-1 {
				t.Fatalf("len after %d removals = %d", k+1, tr.Len())
			}
		}
		if tr.Count(addr.Prefix{}) != 0 {
			t.Fatalf("trial %d: root count %d after draining", trial, tr.Count(addr.Prefix{}))
		}
		// The drained tree accepts everyone again.
		for _, m := range members {
			if err := tr.Add(m); err != nil {
				t.Fatalf("re-add: %v", err)
			}
		}
		if tr.Len() != len(members) {
			t.Fatalf("re-populated len = %d", tr.Len())
		}
	}
}

// TestIncrementalMatchesBulk verifies that Add-one-at-a-time and Build
// produce identical delegates, counts and view structures.
func TestIncrementalMatchesBulk(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		space, members := randomPopulation(r)
		bulk, err := Build(Config{Space: space, R: 2}, members)
		if err != nil {
			t.Fatal(err)
		}
		incr, err := New(Config{Space: space, R: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range members {
			if err := incr.Add(m); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range members {
			for depth := 1; depth <= space.Depth(); depth++ {
				vb, vi := bulk.ViewAt(m.Addr, depth), incr.ViewAt(m.Addr, depth)
				if len(vb.Lines) != len(vi.Lines) || vb.GroupSize() != vi.GroupSize() {
					t.Fatalf("trial %d: view mismatch at %s depth %d", trial, m.Addr, depth)
				}
				for li := range vb.Lines {
					lb, liN := vb.Lines[li], vi.Lines[li]
					if lb.Infix != liN.Infix || lb.Count != liN.Count ||
						len(lb.Delegates) != len(liN.Delegates) {
						t.Fatalf("line mismatch at %s depth %d line %d", m.Addr, depth, li)
					}
					for k := range lb.Delegates {
						if !lb.Delegates[k].Equal(liN.Delegates[k]) {
							t.Fatalf("delegate mismatch at %s depth %d", m.Addr, depth)
						}
					}
				}
			}
		}
	}
}
