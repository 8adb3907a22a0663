// Package experiments regenerates every figure of the paper's evaluation
// (Section 5) plus the analytical tables implied by Sections 2 and 4. Each
// harness returns printable rows; `pmcast-paper fig` (cmd/pmcast-paper)
// renders them as CSV and bench_test.go replays single points as Go
// benchmarks.
//
// Paper baselines (DSN 2002):
//   - Figure 4: delivery probability vs fraction of interested processes,
//     n ≈ 10000 (a=22, d=3), R=3, F=2.
//   - Figure 5: reception probability for uninterested processes, same
//     campaign: the reception columns of Figure 4's rows.
//   - Figure 6: delivery vs subgroup size a ∈ [10,40], d=3, R=4, F=3,
//     matching rates 0.5 and 0.2.
//   - Figure 7: tuned (threshold h) vs untuned delivery, Figure 4 setup.
package experiments

import (
	"fmt"
	"math/rand"

	"pmcast/internal/analysis"
	"pmcast/internal/sim"
)

// Options tunes the experiment harness.
type Options struct {
	// Runs is the number of Monte-Carlo runs per point (default 20).
	Runs int
	// Seed seeds the run RNGs (default 1).
	Seed int64
	// Quick shrinks the tree (a=10, d=2 scale) and the sweep for fast test
	// runs; figures remain shape-comparable but not paper-scale.
	Quick bool
	// Eps and Tau set the simulated environment as given: zero is a
	// loss-free, crash-free run. The paper's simulations assume a mildly
	// lossy environment, ε=0.01 and τ=0.001.
	Eps, Tau float64
	// Threshold is Figure 7's tuning parameter h (default 8).
	Threshold int
}

func (o Options) withDefaults() Options {
	if o.Runs == 0 {
		o.Runs = 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Threshold == 0 {
		o.Threshold = 8
	}
	return o
}

// PaperParams returns the simulation parameters of Figures 4, 5 and 7
// (a=22, d=3, R=3, F=2 — n = 10648 ≈ 10000), shrunk in Quick mode.
func (o Options) PaperParams() sim.Params {
	if o.Quick {
		return sim.Params{A: 10, D: 2, R: 3, F: 2, Eps: o.Eps, Tau: o.Tau}
	}
	return sim.Params{A: 22, D: 3, R: 3, F: 2, Eps: o.Eps, Tau: o.Tau}
}

// PdSweep returns the matching-rate x-axis of Figures 4, 5 and 7.
func (o Options) PdSweep() []float64 {
	if o.Quick {
		return []float64{0.05, 0.2, 0.5, 1.0}
	}
	return []float64{0.025, 0.05, 0.075, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}

// DeliveryRow is one x-axis point of a delivery-style figure.
type DeliveryRow struct {
	// Pd is the fraction of interested processes (x-axis).
	Pd float64
	// Delivery is the mean per-run delivery rate (Figure 4 y-axis).
	Delivery float64
	// DeliveryCI is the 95% confidence half-width.
	DeliveryCI float64
	// UninterestedReception is the mean reception rate among uninterested
	// processes (Figure 5 y-axis).
	UninterestedReception float64
	// ReceptionCI is its 95% confidence half-width.
	ReceptionCI float64
	// AnalyticReliability is the Section 4 model prediction (Eq. 18).
	AnalyticReliability float64
	// Rounds and Messages are mean dissemination costs.
	Rounds   float64
	Messages float64
	// Runs is the number of Monte-Carlo runs aggregated.
	Runs int
}

// DeliverySweep runs the given simulator configuration across matching rates
// and returns one row per rate; it powers Figures 4, 5 and 7.
func DeliverySweep(params sim.Params, pds []float64, runs int, seed int64) ([]DeliveryRow, error) {
	s, err := sim.New(params)
	if err != nil {
		return nil, err
	}
	rows := make([]DeliveryRow, 0, len(pds))
	for i, pd := range pds {
		agg, err := s.RunMany(pd, runs, seed+int64(i)*7919)
		if err != nil {
			return nil, fmt.Errorf("pd=%g: %w", pd, err)
		}
		row := DeliveryRow{
			Pd:                    pd,
			Delivery:              agg.Delivery.Mean(),
			DeliveryCI:            agg.Delivery.CI95(),
			UninterestedReception: agg.UninterestedReception.Mean(),
			ReceptionCI:           agg.UninterestedReception.CI95(),
			Rounds:                agg.Rounds.Mean(),
			Messages:              agg.Messages.Mean(),
			Runs:                  runs,
		}
		model, err := analysis.NewTreeModel(treeParams(params, pd))
		if err == nil {
			row.AnalyticReliability = model.Reliability()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// treeParams is the analytical model of a simulated configuration at
// audience rate pd.
func treeParams(p sim.Params, pd float64) analysis.TreeParams {
	return analysis.TreeParams{
		A: p.A, D: p.D, R: p.R, F: float64(p.F), C: p.C,
		Pd: pd, Eps: p.Eps, Tau: p.Tau,
	}
}

// Figure4 regenerates the paper's Figure 4: probability of delivery for
// interested processes vs fraction of interested processes.
func Figure4(o Options) ([]DeliveryRow, error) {
	o = o.withDefaults()
	return DeliverySweep(o.PaperParams(), o.PdSweep(), o.Runs, o.Seed)
}

// Fig6Row is one point of the scalability figure.
type Fig6Row struct {
	// A is the subgroup size (x-axis).
	A int
	// N is the resulting group size a^d.
	N int
	// DeliveryAtHalf is delivery with matching rate 0.5.
	DeliveryAtHalf float64
	// DeliveryAtFifth is delivery with matching rate 0.2.
	DeliveryAtFifth float64
	// CIHalf and CIFifth are 95% confidence half-widths.
	CIHalf, CIFifth float64
	// Runs is the number of runs per matching rate.
	Runs int
}

// Figure6 regenerates the paper's Figure 6: delivery probability vs subgroup
// size a for d=3, R=4, F=3 at matching rates 0.5 and 0.2.
func Figure6(o Options) ([]Fig6Row, error) {
	o = o.withDefaults()
	as := []int{10, 15, 20, 25, 30, 35, 40}
	d := 3
	if o.Quick {
		as = []int{10, 20}
		d = 2
	}
	rows := make([]Fig6Row, 0, len(as))
	for i, a := range as {
		params := sim.Params{A: a, D: d, R: 4, F: 3, Eps: o.Eps, Tau: o.Tau}
		s, err := sim.New(params)
		if err != nil {
			return nil, err
		}
		aggHalf, err := s.RunMany(0.5, o.Runs, o.Seed+int64(i)*104729)
		if err != nil {
			return nil, fmt.Errorf("a=%d pd=0.5: %w", a, err)
		}
		aggFifth, err := s.RunMany(0.2, o.Runs, o.Seed+int64(i)*104729+1)
		if err != nil {
			return nil, fmt.Errorf("a=%d pd=0.2: %w", a, err)
		}
		rows = append(rows, Fig6Row{
			A:               a,
			N:               params.N(),
			DeliveryAtHalf:  aggHalf.Delivery.Mean(),
			DeliveryAtFifth: aggFifth.Delivery.Mean(),
			CIHalf:          aggHalf.Delivery.CI95(),
			CIFifth:         aggFifth.Delivery.CI95(),
			Runs:            o.Runs,
		})
	}
	return rows, nil
}

// Fig7Row is one point of the tuned-vs-untuned comparison.
type Fig7Row struct {
	// Pd is the matching rate.
	Pd float64
	// Original is the untuned delivery rate; Improved the tuned one.
	Original, Improved float64
	// OriginalReception and ImprovedReception expose the tuning compromise:
	// the uninterested reception rate rises with tuning (Section 5.3).
	OriginalReception, ImprovedReception float64
	// Runs is the number of runs per variant.
	Runs int
}

// Figure7 regenerates the paper's Figure 7: the Section 5.3 tuning
// (threshold h) against the original algorithm across matching rates.
func Figure7(o Options) ([]Fig7Row, error) {
	o = o.withDefaults()
	base := o.PaperParams()
	tuned := base
	tuned.Threshold = o.Threshold

	origRows, err := DeliverySweep(base, o.PdSweep(), o.Runs, o.Seed)
	if err != nil {
		return nil, err
	}
	tunedRows, err := DeliverySweep(tuned, o.PdSweep(), o.Runs, o.Seed)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig7Row, len(origRows))
	for i := range origRows {
		rows[i] = Fig7Row{
			Pd:                origRows[i].Pd,
			Original:          origRows[i].Delivery,
			Improved:          tunedRows[i].Delivery,
			OriginalReception: origRows[i].UninterestedReception,
			ImprovedReception: tunedRows[i].UninterestedReception,
			Runs:              o.Runs,
		}
	}
	return rows, nil
}

// RoundsRow compares tree and flat round bounds at one matching rate.
type RoundsRow struct {
	// Pd is the matching rate.
	Pd float64
	// TreeRounds is Ttot = Σ T_i (Eq. 13); FlatRounds is Tf(n·pd, F·pd).
	TreeRounds, FlatRounds int
	// SimRounds is the measured mean rounds to quiescence.
	SimRounds float64
}

// RoundsTable contrasts the analytical round bounds (Eq. 13 vs the flat
// group, Section 4.3) with measured quiescence times.
func RoundsTable(o Options) ([]RoundsRow, error) {
	o = o.withDefaults()
	params := o.PaperParams()
	s, err := sim.New(params)
	if err != nil {
		return nil, err
	}
	rows := make([]RoundsRow, 0, len(o.PdSweep()))
	for i, pd := range o.PdSweep() {
		model, err := analysis.NewTreeModel(treeParams(params, pd))
		if err != nil {
			return nil, err
		}
		agg, err := s.RunMany(pd, o.Runs, o.Seed+int64(i)*31)
		if err != nil {
			return nil, err
		}
		rows = append(rows, RoundsRow{
			Pd:         pd,
			TreeRounds: model.TotalRounds(),
			FlatRounds: model.FlatRounds(),
			SimRounds:  agg.Rounds.Mean(),
		})
	}
	return rows, nil
}

// BaselineRow compares pmcast against the three baselines at one rate.
type BaselineRow struct {
	Pd float64
	// Delivery rates.
	Pmcast, Flood, Genuine, DetTree float64
	// Uninterested reception rates (flood ≈ 1, genuine = 0 by design).
	PmcastUninterested, FloodUninterested, GenuineUninterested, DetTreeUninterested float64
	// Mean messages per dissemination.
	PmcastMsgs, FloodMsgs, GenuineMsgs, DetTreeMsgs float64
}

// BaselineTable runs the Section 1 comparison: pmcast vs flood broadcast vs
// genuine multicast vs deterministic tree, each run's arms on one draw of
// the environment (audience, crashes, publisher). Every
// arm is folded by sim.Aggregate, so a run with an empty audience counts
// toward no arm's delivery.
func BaselineTable(o Options) ([]BaselineRow, error) {
	o = o.withDefaults()
	params := o.PaperParams()
	n := params.N()
	s, err := sim.New(params)
	if err != nil {
		return nil, err
	}
	pds := o.PdSweep()
	rows := make([]BaselineRow, 0, len(pds))
	for i, pd := range pds {
		row := BaselineRow{Pd: pd}
		// One seed per run, and every arm of the run its own stream of it:
		// the four arms face the same audience, crashes and publisher, so a
		// row's differences are the protocols', not the draws'.
		seeds := rand.New(rand.NewSource(o.Seed + int64(i)*53))
		var pm, fl, gn, dt sim.Aggregate
		for run := 0; run < o.Runs; run++ {
			seed := seeds.Int63()
			rng := func() *rand.Rand { return rand.New(rand.NewSource(seed)) }
			pr, err := s.Run(pd, rng())
			if err != nil {
				return nil, err
			}
			fr, err := sim.RunFlood(sim.FloodParams{
				N: n, F: params.F, Eps: o.Eps, Tau: o.Tau}, pd, rng())
			if err != nil {
				return nil, err
			}
			gr, err := sim.RunGenuine(sim.GenuineParams{
				N: n, ViewSize: params.A * params.R, F: params.F,
				Eps: o.Eps, Tau: o.Tau}, pd, rng())
			if err != nil {
				return nil, err
			}
			dr, err := sim.RunDeterministicTree(sim.DetTreeParams{
				A: params.A, D: params.D, R: params.R,
				Eps: o.Eps, Tau: o.Tau}, pd, rng())
			if err != nil {
				return nil, err
			}
			pm.Add(pr)
			fl.Add(fr)
			gn.Add(gr)
			dt.Add(dr)
		}
		row.Pmcast, row.PmcastUninterested, row.PmcastMsgs = means(pm)
		row.Flood, row.FloodUninterested, row.FloodMsgs = means(fl)
		row.Genuine, row.GenuineUninterested, row.GenuineMsgs = means(gn)
		row.DetTree, row.DetTreeUninterested, row.DetTreeMsgs = means(dt)
		rows = append(rows, row)
	}
	return rows, nil
}

// means returns an arm's three headline metrics: delivery, uninterested
// reception and messages.
func means(a sim.Aggregate) (delivery, reception, msgs float64) {
	return a.Delivery.Mean(), a.UninterestedReception.Mean(), a.Messages.Mean()
}
