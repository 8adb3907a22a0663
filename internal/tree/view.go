package tree

import (
	"fmt"
	"strings"

	"pmcast/internal/addr"
	"pmcast/internal/event"
	"pmcast/internal/interest"
)

// Line is one row of a view table (paper Figure 2): a subgroup identified by
// its infix digit, the delegates representing it, its regrouped interests,
// and its process count. At depth d a line describes a single neighbor
// process (its own "delegate" is itself).
type Line struct {
	// Infix is the digit x(depth) distinguishing the subgroup under the
	// view's prefix.
	Infix int
	// Delegates are the R processes representing the subgroup (one entry —
	// the process itself — at depth d).
	Delegates []addr.Address
	// Summary is the regrouped interest of every process in the subgroup.
	Summary *interest.Summary
	// Compiled is the line's handle on the view's Index: it answers for this
	// line alone.
	Compiled *interest.CompiledMatcher
	// Count is the total number of processes in the subgroup (‖·‖, Eq. 4),
	// used by the round-estimation heuristics (Section 2.3, "Process count").
	Count int
}

// Matches reports whether the event is of interest to some process of the
// line's subgroup ("event ⊳ dest" for a delegate dest, Figure 3 line 13).
func (l Line) Matches(ev event.Event) bool { return l.Summary.Matches(ev) }

// View is the table a process keeps for one depth: the subgroups of its
// depth-(i−1) prefix, one line each (paper Figure 2). All processes sharing
// the prefix share the view.
type View struct {
	// Prefix is the common prefix x(1)…x(depth−1) of the group.
	Prefix addr.Prefix
	// Depth is the tree depth i of the view, 1 ≤ i ≤ d.
	Depth int
	// Lines lists the populated subgroups, ordered by infix.
	Lines []Line
	// R is the redundancy factor the view was built with.
	R int
	// LeafLevel reports whether this is the deepest view (lines are
	// individual processes rather than delegate sets).
	LeafLevel bool
	// Gen is the generation of the tree node the view was built over (see
	// Tree.GenerationAt): equal generations guarantee identical lines, which
	// is what lets per-event susceptibility caches survive a process
	// rebuild.
	Gen uint64
	// Index answers an event for every line in one probe, line i being
	// Lines[i]. Views built by Tree share it with every other holder of the
	// view.
	Index *interest.Index
}

// GroupSize returns the number of processes forming the depth-i group: the
// delegates of every line (Section 3.3: |view[i]|·R), or the neighbor
// processes themselves at depth d.
func (v *View) GroupSize() int {
	n := 0
	for _, l := range v.Lines {
		n += len(l.Delegates)
	}
	return n
}

// MatchingRate implements GETRATE (Figure 3): the fraction of the group's
// members susceptible to the event.
func (v *View) MatchingRate(ev event.Event) float64 {
	total := v.GroupSize()
	if total == 0 {
		return 0
	}
	hits := 0
	for _, l := range v.Lines {
		if l.Matches(ev) {
			hits += len(l.Delegates)
		}
	}
	return float64(hits) / float64(total)
}

// ViewAt returns the view of process a at the given depth: the table for
// prefix a.Prefix(depth). Returns nil when the prefix is unpopulated.
func (t *Tree) ViewAt(a addr.Address, depth int) *View {
	if depth < 1 || depth > t.Depth() {
		return nil
	}
	return t.ViewOf(a.Prefix(depth), depth)
}

// ViewOf builds the view table for a prefix of length depth−1.
func (t *Tree) ViewOf(p addr.Prefix, depth int) *View {
	if depth < 1 || depth > t.Depth() || p.Len() != depth-1 {
		return nil
	}
	n := t.lookup(p)
	if n == nil {
		return nil
	}
	leaf := depth == t.Depth()
	v := &View{Prefix: p, Depth: depth, R: t.cfg.R, LeafLevel: leaf, Gen: n.viewGen, Index: t.store.viewIndex(n)}
	v.Lines = make([]Line, 0, len(n.children))
	for digit, child := range n.children {
		if child == nil {
			continue
		}
		dels := make([]addr.Address, len(child.delegates))
		copy(dels, child.delegates)
		v.Lines = append(v.Lines, Line{
			Infix:     digit,
			Delegates: dels,
			Summary:   child.summary,
			Compiled:  v.Index.Line(len(v.Lines)),
			Count:     child.count,
		})
	}
	return v
}

// RenderView formats a view table in the style of the paper's Figure 2.
func RenderView(v *View) string {
	if v == nil {
		return "<no view>"
	}
	var sb strings.Builder
	if v.Prefix.Len() == 0 {
		fmt.Fprintf(&sb, "View of Depth %d\n", v.Depth)
	} else {
		fmt.Fprintf(&sb, "View of Depth %d (Prefix = %s)\n", v.Depth, v.Prefix)
	}
	sb.WriteString("Infix | Interests | Delegates (count)\n")
	for _, l := range v.Lines {
		dels := make([]string, len(l.Delegates))
		for i, d := range l.Delegates {
			dels[i] = d.String()
		}
		fmt.Fprintf(&sb, "%5d | %s | %s (%d)\n", l.Infix, l.Summary, strings.Join(dels, ", "), l.Count)
	}
	return sb.String()
}
