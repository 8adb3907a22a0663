package core

import (
	"pmcast/internal/addr"
	"pmcast/internal/event"
	"pmcast/internal/interest"
	"pmcast/internal/tree"
)

// TreeView adapts one tree.View to the DepthView interface, flattening the
// view lines into a deterministic member order (line order, then election
// rank) and matching members through the view's index: one probe answers
// every line, and each matching line sets its member range. It carries the
// tree node generation, so cached profiles survive process rebuilds that did
// not touch this view's prefix. The index is shared with every process of
// the store that holds the view; while one does, the tree keeps handing it
// out.
type TreeView struct {
	members   []addr.Address
	lineStart []int // line index → first member index (len lines+1)
	index     *interest.Index
	hits      []uint64 // the probe's result, one word per index block
	selfIndex int
	selfLine  int
	gen       uint64
}

var _ DepthView = (*TreeView)(nil)

// NewTreeView builds the adapter for the given process. A nil view yields a
// nil adapter (the process forwards through that depth without gossiping).
func NewTreeView(v *tree.View, self addr.Address) *TreeView {
	if v == nil {
		return nil
	}
	tv := &TreeView{
		members:   make([]addr.Address, 0, v.GroupSize()),
		lineStart: make([]int, len(v.Lines)+1),
		index:     v.Index,
		selfIndex: -1,
		selfLine:  -1,
		gen:       v.Gen,
	}
	tv.hits = make([]uint64, tv.index.Blocks())
	for li, line := range v.Lines {
		tv.lineStart[li] = len(tv.members)
		for _, m := range line.Delegates {
			if m.Equal(self) {
				tv.selfIndex = len(tv.members)
				tv.selfLine = li
			}
			tv.members = append(tv.members, m)
		}
	}
	tv.lineStart[len(v.Lines)] = len(tv.members)
	if tv.selfLine < 0 {
		// The process may not be a member of this depth's group (e.g. a
		// publisher that is no delegate); its own subgroup is still the line
		// whose prefix digit matches its address.
		depthDigit := v.Prefix.Len() + 1
		if depthDigit <= self.Depth() {
			for li, line := range v.Lines {
				if line.Infix == self.Digit(depthDigit) {
					tv.selfLine = li
					break
				}
			}
		}
	}
	return tv
}

// Size implements DepthView.
func (tv *TreeView) Size() int { return len(tv.members) }

// MemberAt implements DepthView.
func (tv *TreeView) MemberAt(i int) addr.Address { return tv.members[i] }

// SelfIndex implements DepthView.
func (tv *TreeView) SelfIndex() int { return tv.selfIndex }

// Generation implements DepthView: the tree node generation of the view.
func (tv *TreeView) Generation() uint64 { return tv.gen }

// Profile implements DepthView: the whole susceptibility profile from one
// index probe. The cost counts one Eval per distinct line language and one
// Comparison per attribute probe.
func (tv *TreeView) Profile(ev event.Event, p *MatchProfile) {
	size := len(tv.members)
	p.Ensure(size)
	tv.index.Probe(ev, tv.hits, &p.Cost)
	hits, lines, selfIn := 0, 0, false
	for li := 0; li+1 < len(tv.lineStart); li++ {
		if !tv.index.Hit(tv.hits, li) {
			continue
		}
		lines++
		if li == tv.selfLine {
			selfIn = true
		}
		lo, hi := tv.lineStart[li], tv.lineStart[li+1]
		p.SetRange(lo, hi)
		hits += hi - lo
	}
	p.Hits, p.Lines, p.SelfIn = hits, lines, selfIn
	if size > 0 {
		p.Rate = float64(hits) / float64(size)
	} else {
		p.Rate = 0
	}
}

// BuildProcess assembles a Process for a tree member: per-depth TreeViews
// plus, as delivery predicate, the member's own line of its depth-d view — a
// leaf's summary is the member's subscription alone, so the line matches
// exactly what the subscription does.
func BuildProcess(t *tree.Tree, self addr.Address, cfg Config) (*Process, error) {
	return RebuildProcess(t, self, cfg, nil)
}

// RebuildProcess is BuildProcess for a member whose views moved: the new
// process takes over old's state (AdoptState — old is dead afterwards), the
// views of old whose generation the tree still reports — a change under
// another subtree moves only the shallow depths; old being dead, their
// scratch has one user — and, when the depth-d view is one of them, old's
// delivery predicate, the line of that view. A nil old builds from scratch.
func RebuildProcess(t *tree.Tree, self addr.Address, cfg Config, old *Process) (*Process, error) {
	if _, ok := t.Member(self); !ok {
		return nil, ErrUnknownSelf(self)
	}
	cfg.D = t.Depth()
	views := make([]DepthView, t.Depth())
	for depth := 1; depth <= t.Depth(); depth++ {
		if old != nil && depth <= len(old.views) {
			// Generation 0 names no view signature (a hand-built view).
			if tv, _ := old.views[depth-1].(*TreeView); tv != nil && tv.gen != 0 && tv.gen == t.GenerationAt(self, depth) {
				views[depth-1] = tv
				continue
			}
		}
		if tv := NewTreeView(t.ViewAt(self, depth), self); tv != nil {
			views[depth-1] = tv // a nil adapter must stay a nil interface
		}
	}
	var selfMatch func(event.Event) bool
	if leaf := views[cfg.D-1].(*TreeView); old != nil && len(old.views) == cfg.D && leaf == old.views[cfg.D-1] {
		selfMatch = old.selfMatch
	} else {
		selfMatch = leaf.index.Line(leaf.selfLine).Matches
	}
	p, err := newShell(self, cfg, views, selfMatch)
	if err != nil {
		return nil, err
	}
	if p.AdoptState(old); p.state == nil {
		p.state = newState(cfg.D)
	}
	return p, nil
}

// ErrUnknownSelf wraps the unknown-member condition with the address.
func ErrUnknownSelf(a addr.Address) error {
	return &unknownSelfError{addr: a}
}

type unknownSelfError struct{ addr addr.Address }

func (e *unknownSelfError) Error() string {
	return "core: process " + e.addr.String() + " is not a tree member"
}
