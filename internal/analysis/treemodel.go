package analysis

import (
	"fmt"
	"math"
)

// TreeParams describes the regular-tree analysis model (Section 4.1): a
// group of n = a^d processes arranged in a tree of constant arity a and
// depth d, redundancy factor R, fanout F, where every process is interested
// in the observed event with probability Pd, messages are lost with
// probability Eps, and a fraction Tau of processes crash during the run.
type TreeParams struct {
	// A is the subgroup count per node (regular arity, Eq. 6).
	A int
	// D is the tree depth.
	D int
	// R is the redundancy factor (delegates per subgroup).
	R int
	// F is the gossip fanout.
	F float64
	// Pd is the matching rate: P[a given process is interested].
	Pd float64
	// Eps is the message loss probability ε.
	Eps float64
	// Tau is the crash probability τ.
	Tau float64
	// C is the additive constant of Pittel's asymptote (Eq. 3).
	C float64
}

func (p TreeParams) validate() error {
	if p.A < 1 || p.D < 1 || p.R < 1 {
		return fmt.Errorf("analysis: invalid tree shape a=%d d=%d R=%d", p.A, p.D, p.R)
	}
	if p.Pd < 0 || p.Pd > 1 {
		return fmt.Errorf("analysis: matching rate %g outside [0,1]", p.Pd)
	}
	if p.Eps < 0 || p.Eps >= 1 || p.Tau < 0 || p.Tau >= 1 {
		return fmt.Errorf("analysis: ε=%g τ=%g outside [0,1)", p.Eps, p.Tau)
	}
	return nil
}

// N returns the total group size a^d.
func (p TreeParams) N() int {
	n := 1
	for i := 0; i < p.D; i++ {
		n *= p.A
	}
	return n
}

// InterestAtDepth evaluates Eq. 7: the probability p_i that a depth-i group
// member is susceptible — interested itself or representing an interested
// process among the a^(d−i) leaves of its subtree:
//
//	p_i = 1 − (1 − p_d)^(a^(d−i)).
func (p TreeParams) InterestAtDepth(i int) float64 {
	leaves := math.Pow(float64(p.A), float64(p.D-i))
	return 1 - math.Pow(1-p.Pd, leaves)
}

// ViewSize evaluates Eq. 12: the number of processes a member knows at depth
// i — R·a for inner depths, a at the leaf depth.
func (p TreeParams) ViewSize(i int) int {
	if i == p.D {
		return p.A
	}
	return p.R * p.A
}

// TotalViewSize evaluates the sum of Eq. 12 over all depths:
// m = R·a·(d−1) + a ∈ O(d·R·n^(1/d)).
func (p TreeParams) TotalViewSize() int {
	return p.R*p.A*(p.D-1) + p.A
}

// DepthStats captures the per-depth quantities of the model.
type DepthStats struct {
	// Depth is i, 1 at the root group, D at the leaves.
	Depth int
	// Pi is the susceptibility probability p_i (Eq. 7).
	Pi float64
	// Mi is the view size m_i (Eq. 12).
	Mi int
	// EffSize is the susceptible audience m_i·p_i.
	EffSize float64
	// EffFanout is the rate-conditioned fanout F·p_i.
	EffFanout float64
	// Rounds is T_i = T_f(m_i·p_i, F·p_i), the loss-adjusted Pittel bound
	// for this depth (Eq. 11, 13).
	Rounds int
	// ExpectedInfected is E[s_{T_i}] from the flat chain (Eq. 14).
	ExpectedInfected float64
	// NodeInfectProb is r_i (Eq. 15): the probability that a depth-i node
	// (its R delegates; a single process at depth d) is infected after
	// gossiping at depth i, given its parent subgroup was infected.
	NodeInfectProb float64
}

// TreeModel precomputes the per-depth chains of the pmcast analysis.
type TreeModel struct {
	params TreeParams
	depths []DepthStats
}

// NewTreeModel validates parameters and evaluates the model at every depth.
func NewTreeModel(params TreeParams) (*TreeModel, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	m := &TreeModel{params: params, depths: make([]DepthStats, params.D)}
	for i := 1; i <= params.D; i++ {
		ds, err := params.depthStats(i)
		if err != nil {
			return nil, err
		}
		m.depths[i-1] = ds
	}
	return m, nil
}

func (p TreeParams) depthStats(i int) (DepthStats, error) {
	pi := p.InterestAtDepth(i)
	mi := p.ViewSize(i)
	effSize := float64(mi) * pi
	effFanout := p.F * pi
	rounds := PittelLossAdjustedRounds(effSize, effFanout, p.C, p.Eps, p.Tau)

	ds := DepthStats{
		Depth:     i,
		Pi:        pi,
		Mi:        mi,
		EffSize:   effSize,
		EffFanout: effFanout,
		Rounds:    rounds,
	}

	n := int(math.Round(effSize))
	if n <= 0 || pi == 0 {
		return ds, nil
	}
	chain, err := NewChain(FlatParams{N: n, F: effFanout, Eps: p.Eps, Tau: p.Tau})
	if err != nil {
		return DepthStats{}, err
	}
	ds.ExpectedInfected = chain.ExpectedInfected(1, rounds)

	// Eq. 15: r_i = 1 − (1 − E[s_Ti]/(m_i·p_i))^(m_i/a). The exponent m_i/a
	// is R at inner depths (a node is R delegates) and 1 at the leaves (a
	// node is a single process).
	frac := ds.ExpectedInfected / effSize
	frac = min(max(frac, 0), 1)
	exponent := float64(mi) / float64(p.A)
	ds.NodeInfectProb = 1 - math.Pow(1-frac, exponent)
	return ds, nil
}

// Params returns the model parameters.
func (m *TreeModel) Params() TreeParams { return m.params }

// Depth returns the stats of depth i (1-based).
func (m *TreeModel) Depth(i int) DepthStats { return m.depths[i-1] }

// Depths returns a copy of all per-depth stats.
func (m *TreeModel) Depths() []DepthStats {
	out := make([]DepthStats, len(m.depths))
	copy(out, m.depths)
	return out
}

// TotalRounds evaluates Eq. 13: T_tot = Σ T_i, the (pessimistic) expected
// number of rounds for a multicast to traverse the whole tree.
func (m *TreeModel) TotalRounds() int {
	total := 0
	for _, d := range m.depths {
		total += d.Rounds
	}
	return total
}

// FlatRounds returns T_f(n·p_d, F·p_d) — the rounds a depth-1 ("flat")
// group of the same total size would need. Section 4.3 argues the tree costs
// about the same number of rounds as the flat group once the R-delegate
// head start per subgroup is accounted for.
func (m *TreeModel) FlatRounds() int {
	p := m.params
	return PittelLossAdjustedRounds(float64(p.N())*p.Pd, p.F*p.Pd, p.C, p.Eps, p.Tau)
}

// ExpectedInfectedEntities evaluates Eq. 18 at depth i: E[g_i] ≈ Π_{j≤i}
// r_j·a·p_j, the expected number of infected depth-i entities.
func (m *TreeModel) ExpectedInfectedEntities(i int) float64 {
	prod := 1.0
	for j := 1; j <= i; j++ {
		d := m.depths[j-1]
		prod *= d.NodeInfectProb * float64(m.params.A) * d.Pi
	}
	return prod
}

// ExpectedDelivered returns the expected number of infected processes (the
// full product of Eq. 18, i = d: leaf entities are processes).
func (m *TreeModel) ExpectedDelivered() float64 {
	return m.ExpectedInfectedEntities(m.params.D)
}

// Reliability returns the expected reliability degree: expected infected
// processes divided by the n·p_d effectively interested ones, clamped to
// [0, 1] (the product form can slightly exceed the audience for p_d → 1).
func (m *TreeModel) Reliability() float64 {
	audience := float64(m.params.N()) * m.params.Pd
	if audience <= 0 {
		return 0
	}
	return min(m.ExpectedDelivered()/audience, 1)
}

// EntityDistribution propagates the branching chain of Eq. 16–17 and returns
// P[g_i = k] for the requested depth as a dense slice indexed by k. The
// support grows like Π a·p_j, so this is O((n·p_d)²) at the leaf depth of
// large trees — use ExpectedDelivered when only the mean is needed.
func (m *TreeModel) EntityDistribution(depth int) []float64 {
	dist := []float64{0, 1} // g_0 = 1
	a := float64(m.params.A)
	for i := 1; i <= depth; i++ {
		d := m.depths[i-1]
		// Support bound: every parent entity exposes round(a·p_i) children.
		maxParents := len(dist) - 1
		maxChildren := int(math.Round(float64(maxParents) * a * d.Pi))
		next := make([]float64, maxChildren+1)
		for j, pj := range dist {
			if pj == 0 {
				continue
			}
			trials := int(math.Round(float64(j) * a * d.Pi))
			if trials == 0 {
				next[0] += pj
				continue
			}
			for k := 0; k <= trials; k++ {
				next[k] += pj * binomialPMF(trials, d.NodeInfectProb, k)
			}
		}
		dist = next
	}
	return dist
}

// ViewSizeByDepth returns, for a fixed population n and redundancy R, the
// total view size m(d) = R·⌈n^(1/d)⌉·(d−1) + ⌈n^(1/d)⌉ for each candidate
// depth 1…maxD (Section 4.3: m decreases with d and reaches its minimum near
// d = log n). Used by the membership-scalability experiment.
func ViewSizeByDepth(n, r, maxD int) []int {
	out := make([]int, maxD)
	for d := 1; d <= maxD; d++ {
		a := ceilRoot(n, d)
		out[d-1] = r*a*(d-1) + a
	}
	return out
}

// ceilRoot returns the smallest integer a with a^d ≥ n, robust against the
// floating-point drift of math.Pow (e.g. 10000^(1/4) = 10.000000000000002).
func ceilRoot(n, d int) int {
	if n <= 1 {
		return 1
	}
	a := int(math.Round(math.Pow(float64(n), 1/float64(d))))
	if a < 1 {
		a = 1
	}
	for intPow(a, d) < n {
		a++
	}
	for a > 1 && intPow(a-1, d) >= n {
		a--
	}
	return a
}

// intPow returns a^d for a ≥ 1, saturating at math.MaxInt instead of
// overflowing.
func intPow(a, d int) int {
	out := 1
	for i := 0; i < d; i++ {
		if out > math.MaxInt/a {
			return math.MaxInt
		}
		out *= a
	}
	return out
}
