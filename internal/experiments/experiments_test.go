package experiments

import (
	"testing"

	"pmcast/internal/analysis"
)

// quickOpts keeps test runtime low while preserving figure shapes, in the
// paper's mildly lossy environment.
func quickOpts() Options {
	return Options{Quick: true, Runs: 8, Seed: 42, Eps: 0.01, Tau: 0.001}
}

func TestFigure4QuickShape(t *testing.T) {
	rows, err := Figure4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Delivery at pd=1 essentially certain; pd grows → delivery grows
	// (allowing small Monte-Carlo noise).
	last := rows[len(rows)-1]
	if last.Pd != 1.0 {
		t.Fatalf("last pd = %g", last.Pd)
	}
	if last.Delivery < 0.95 {
		t.Errorf("delivery at pd=1 = %g", last.Delivery)
	}
	if rows[0].Delivery > last.Delivery+0.05 {
		t.Errorf("delivery not increasing: first %g last %g", rows[0].Delivery, last.Delivery)
	}
	for _, r := range rows {
		if r.Delivery < 0 || r.Delivery > 1 {
			t.Errorf("pd=%g delivery %g outside [0,1]", r.Pd, r.Delivery)
		}
		if r.AnalyticReliability < 0 || r.AnalyticReliability > 1 {
			t.Errorf("pd=%g analytic %g outside [0,1]", r.Pd, r.AnalyticReliability)
		}
		if r.Runs != 8 {
			t.Errorf("runs = %d", r.Runs)
		}
	}
}

func TestFigure5UninterestedBounds(t *testing.T) {
	// Figure 5 plots the reception columns of Figure 4's campaign.
	rows, err := Figure4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.UninterestedReception < 0 || r.UninterestedReception > 0.5 {
			t.Errorf("pd=%g uninterested reception %g out of plausible range",
				r.Pd, r.UninterestedReception)
		}
	}
	// Nobody uninterested at pd=1 → rate 0.
	last := rows[len(rows)-1]
	if last.UninterestedReception != 0 {
		t.Errorf("pd=1 reception = %g, want 0", last.UninterestedReception)
	}
}

func TestFigure6QuickShape(t *testing.T) {
	rows, err := Figure6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.DeliveryAtHalf < 0.7 {
			t.Errorf("a=%d delivery@0.5 = %g", r.A, r.DeliveryAtHalf)
		}
		// Matching rate 0.5 should dominate 0.2 (paper's Figure 6 ordering),
		// modulo noise.
		if r.DeliveryAtFifth > r.DeliveryAtHalf+0.1 {
			t.Errorf("a=%d ordering violated: 0.2→%g > 0.5→%g",
				r.A, r.DeliveryAtFifth, r.DeliveryAtHalf)
		}
		if r.N != r.A*r.A {
			t.Errorf("quick mode N = %d for a=%d", r.N, r.A)
		}
	}
}

func TestFigure7TunedDominatesAtSmallRates(t *testing.T) {
	o := quickOpts()
	o.Runs = 20
	o.Threshold = 6
	rows, err := Figure7(o)
	if err != nil {
		t.Fatal(err)
	}
	small := rows[0] // pd = 0.05 in quick mode
	if small.Improved < small.Original-0.05 {
		t.Errorf("tuning hurt small rates: improved %g < original %g",
			small.Improved, small.Original)
	}
	// The compromise: tuned reception ≥ untuned at small rates.
	if small.ImprovedReception < small.OriginalReception-0.01 {
		t.Errorf("tuned reception %g unexpectedly below untuned %g",
			small.ImprovedReception, small.OriginalReception)
	}
	// At pd=1 both deliver fully.
	last := rows[len(rows)-1]
	if last.Original < 0.95 || last.Improved < 0.95 {
		t.Errorf("pd=1: original %g improved %g", last.Original, last.Improved)
	}
}

// TestViewSizeTable checks the views table (Eq. 2/12 by depth) for the
// population of the paper's tree: it starts at n, falls over early depths and
// at the tree's own depth matches the tree's total view size.
func TestViewSizeTable(t *testing.T) {
	p := Options{}.PaperParams()
	n := 1
	for range p.D {
		n *= p.A
	}
	sizes := analysis.ViewSizeByDepth(n, p.R, 6)
	if len(sizes) != 6 {
		t.Fatalf("rows = %d", len(sizes))
	}
	if sizes[0] != n {
		t.Errorf("d=1 size = %d, want %d", sizes[0], n)
	}
	// d=3 (a=22): 3·22·2+22 = 154.
	if sizes[2] != 154 {
		t.Errorf("d=3 view size = %d, want 154", sizes[2])
	}
	tree := analysis.TreeParams{A: p.A, D: p.D, R: p.R}
	if got := sizes[p.D-1]; got != tree.TotalViewSize() {
		t.Errorf("d=%d size = %d, tree total = %d", p.D, got, tree.TotalViewSize())
	}
	if !(sizes[0] > sizes[1] && sizes[1] > sizes[2]) {
		t.Error("view sizes not decreasing over early depths")
	}
}

func TestRoundsTable(t *testing.T) {
	o := quickOpts()
	rows, err := RoundsTable(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.TreeRounds < 0 || r.FlatRounds < 0 || r.SimRounds < 0 {
			t.Errorf("negative rounds: %+v", r)
		}
		if r.Pd >= 0.5 && r.SimRounds == 0 {
			t.Errorf("pd=%g: zero measured rounds", r.Pd)
		}
	}
}

func TestBaselineTable(t *testing.T) {
	o := quickOpts()
	o.Runs = 5
	rows, err := BaselineTable(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Genuine multicast never touches the uninterested.
		if r.GenuineUninterested != 0 {
			t.Errorf("pd=%g genuine uninterested = %g", r.Pd, r.GenuineUninterested)
		}
		// Flood floods: at any audience, uninterested reception near 1
		// (when there are uninterested processes at all).
		if r.Pd < 1 && r.FloodUninterested < 0.9 {
			t.Errorf("pd=%g flood uninterested = %g", r.Pd, r.FloodUninterested)
		}
		// pmcast must load the uninterested far less than flooding.
		if r.Pd < 1 && r.PmcastUninterested > r.FloodUninterested/2 {
			t.Errorf("pd=%g pmcast uninterested %g not clearly below flood %g",
				r.Pd, r.PmcastUninterested, r.FloodUninterested)
		}
	}
	// At moderate audiences pmcast spends fewer messages than flooding.
	mid := rows[1] // pd = 0.2 in quick mode
	if mid.PmcastMsgs >= mid.FloodMsgs {
		t.Errorf("pmcast messages %g >= flood %g at pd=%g",
			mid.PmcastMsgs, mid.FloodMsgs, mid.Pd)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Runs != 20 || o.Seed != 1 || o.Threshold != 8 {
		t.Errorf("defaults = %+v", o)
	}
	p := o.PaperParams()
	if p.A != 22 || p.D != 3 || p.R != 3 || p.F != 2 {
		t.Errorf("paper params = %+v", p)
	}
	if n := p.N(); n != 10648 {
		t.Errorf("n = %d", n)
	}
	if len(o.PdSweep()) != 14 {
		t.Errorf("sweep points = %d", len(o.PdSweep()))
	}
}
