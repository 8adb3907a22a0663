package experiments

import (
	"math"
	"testing"

	"pmcast/internal/analysis"
	"pmcast/internal/sim"
)

// TestModelTracksSimulation cross-validates the Section 4 analytical model
// (Eq. 18 reliability) against Monte-Carlo measurements across the matching
// -rate sweep: the model must track the simulated delivery within a loose
// band and, more importantly, must order the regimes identically (both
// degrade towards small p_d, both saturate towards 1).
func TestModelTracksSimulation(t *testing.T) {
	params := sim.Params{A: 8, D: 2, R: 2, F: 2, Eps: 0.01, Tau: 0.001}
	s, err := sim.New(params)
	if err != nil {
		t.Fatal(err)
	}
	pds := []float64{0.1, 0.3, 0.5, 0.8, 1.0}
	var simVals, modelVals []float64
	for i, pd := range pds {
		agg, err := s.RunMany(pd, 40, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		m, err := analysis.NewTreeModel(analysis.TreeParams{
			A: params.A, D: params.D, R: params.R, F: float64(params.F),
			Pd: pd, Eps: params.Eps, Tau: params.Tau,
		})
		if err != nil {
			t.Fatal(err)
		}
		simVals = append(simVals, agg.Delivery.Mean())
		modelVals = append(modelVals, m.Reliability())
	}
	for i, pd := range pds {
		if diff := math.Abs(simVals[i] - modelVals[i]); diff > 0.3 {
			t.Errorf("pd=%g: model %g vs sim %g diverge by %g",
				pd, modelVals[i], simVals[i], diff)
		}
	}
	// Same qualitative ordering: the two endpoints must agree on direction.
	if (simVals[len(simVals)-1]-simVals[0])*(modelVals[len(modelVals)-1]-modelVals[0]) < 0 {
		t.Errorf("model and simulation disagree on trend: sim %v model %v", simVals, modelVals)
	}
}

// TestFlatChainTracksFlatSimulation validates the Eq. 8–10 Markov chain
// against the flood-gossip baseline restricted to a fully interested group —
// both model a flat gossiping group, so the expected infection fractions
// must agree closely.
func TestFlatChainTracksFlatSimulation(t *testing.T) {
	const n, f = 60, 2
	chain, err := analysis.NewChain(analysis.FlatParams{N: n, F: f})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.Params{A: n, D: 1, R: 1, F: f, MaxRounds: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// The simulator runs to quiescence, not a fixed round count, so compare
	// against full delivery instead: with generous rounds both approach 1.
	agg, err := s.RunMany(1.0, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	full := chain.ExpectedInfected(1, analysis.PittelLossAdjustedRounds(n, f, 0, 0, 0)) / n
	if math.Abs(agg.Delivery.Mean()-full) > 0.12 {
		t.Errorf("flat sim %g vs chain %g (after T rounds) diverge",
			agg.Delivery.Mean(), full)
	}
}

// TestAblationTableQuick exercises the ablation harness end to end.
func TestAblationTableQuick(t *testing.T) {
	o := Options{Quick: true, Runs: 4, Seed: 3, Eps: 0.01, Tau: 0.001}
	rows, err := AblationTable(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // 9 variants × 1 quick pd
		t.Fatalf("rows = %d", len(rows))
	}
	byVariant := map[string]AblationRow{}
	for _, r := range rows {
		if r.Delivery < 0 || r.Delivery > 1 {
			t.Errorf("variant %s delivery %g", r.Variant, r.Delivery)
		}
		byVariant[r.Variant] = r
	}
	// R=1 must not beat the baseline (single delegate per subtree).
	if byVariant["R=1"].Delivery > byVariant["baseline"].Delivery+0.05 {
		t.Errorf("R=1 (%g) beat baseline (%g)",
			byVariant["R=1"].Delivery, byVariant["baseline"].Delivery)
	}
	// Conservative budgets never hurt delivery.
	if byVariant["C=2"].Delivery < byVariant["baseline"].Delivery-0.05 {
		t.Errorf("C=2 (%g) below baseline (%g)",
			byVariant["C=2"].Delivery, byVariant["baseline"].Delivery)
	}
}
