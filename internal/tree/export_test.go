package tree

import (
	"pmcast/internal/addr"
	"pmcast/internal/interest"
)

// Introspection the tests read a tree through, by prefix; the program reads
// it through views.

// visitMembers calls fn for every member under n in address order.
func visitMembers(n *node, fn func(*Member)) {
	if n.member != nil {
		fn(n.member)
		return
	}
	for _, child := range n.children {
		if child != nil {
			visitMembers(child, fn)
		}
	}
}

// Members returns all members sorted by address.
func (t *Tree) Members() []Member {
	out := make([]Member, 0, t.Len())
	visitMembers(t.root, func(m *Member) { out = append(out, *m) })
	return out
}

// Count returns ‖prefix‖, the number of processes in the subtree (Eq. 4).
func (t *Tree) Count(p addr.Prefix) int {
	n := t.lookup(p)
	if n == nil {
		return 0
	}
	return n.count
}

// Delegates returns the elected delegates representing the subtree at the
// given prefix (the processes populating the parent node on its behalf).
func (t *Tree) Delegates(p addr.Prefix) []addr.Address {
	n := t.lookup(p)
	if n == nil {
		return nil
	}
	out := make([]addr.Address, len(n.delegates))
	copy(out, n.delegates)
	return out
}

// Summary returns the regrouped interest summary of the subtree.
func (t *Tree) Summary(p addr.Prefix) *interest.Summary {
	n := t.lookup(p)
	if n == nil {
		return nil
	}
	return n.summary
}

// Generation is GenerationAt by prefix: the generation of a view built over
// p. Leaves report 0.
func (t *Tree) Generation(p addr.Prefix) uint64 {
	n := t.lookup(p)
	if n == nil {
		return 0
	}
	return n.viewGen
}

// TopDepth returns the smallest depth at which the process appears (1 if it
// is a root delegate). Processes participate in gossiping from their top
// depth down to depth d.
func (t *Tree) TopDepth(a addr.Address) int {
	for i := 1; i < t.Depth(); i++ {
		if t.IsDelegate(a, i) {
			return i
		}
	}
	return t.Depth()
}

// IsDelegate reports whether process a represents its depth-i subtree, i.e.
// appears in the group of depth i. Every process is trivially a "delegate"
// at depth d (it appears in its leaf group).
func (t *Tree) IsDelegate(a addr.Address, depth int) bool {
	if depth == t.Depth() {
		return t.lookupMember(a) != nil
	}
	// a represents its subtree rooted at prefix of length depth.
	n := t.lookupPath(a, depth)
	if n == nil {
		return false
	}
	for _, d := range n.delegates {
		if d.Equal(a) {
			return true
		}
	}
	return false
}
