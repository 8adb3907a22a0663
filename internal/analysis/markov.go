package analysis

import (
	"fmt"
	"math"
)

// FlatParams describes a "flat" group (a tree of depth 1, Section 4.2): n
// susceptible processes of which every infected one gossips to F targets per
// round, messages being lost with probability Eps and processes crashing
// with probability Tau. In pmcast both n and F arrive pre-conditioned by the
// matching rate (n·p_d and F·p_d).
type FlatParams struct {
	// N is the (effective) group size — processes that should be infected.
	N int
	// F is the (effective) per-round fanout; fractional values model
	// rate-conditioned fanouts.
	F float64
	// Eps is the per-message loss probability ε ∈ [0, 1).
	Eps float64
	// Tau is the per-process crash probability τ ∈ [0, 1).
	Tau float64
}

// validate reports nonsensical parameters.
func (p FlatParams) validate() error {
	if p.N < 0 {
		return fmt.Errorf("analysis: negative group size %d", p.N)
	}
	if p.Eps < 0 || p.Eps >= 1 {
		return fmt.Errorf("analysis: loss probability %g outside [0,1)", p.Eps)
	}
	if p.Tau < 0 || p.Tau >= 1 {
		return fmt.Errorf("analysis: crash probability %g outside [0,1)", p.Tau)
	}
	return nil
}

// InfectionProb evaluates Eq. 8: the probability p that one given infected
// process infects one given susceptible process in one round — the
// conjunction of being chosen among the F targets, the message surviving,
// and the target not having crashed:
//
//	p(n, F) = F/(n−1) · (1−ε)(1−τ)
//
// clamped to [0, 1] (the ratio exceeds 1 when F ≥ n−1).
func (p FlatParams) InfectionProb() float64 {
	if p.N <= 1 {
		return 0
	}
	v := p.F / float64(p.N-1) * (1 - p.Eps) * (1 - p.Tau)
	return min(max(v, 0), 1)
}

// Chain is the homogeneous Markov chain of Eq. 9–10 over the number of
// infected processes s_t ∈ {0, …, N}. Build with NewChain, then Step or
// Distribution.
type Chain struct {
	params FlatParams
	q      float64 // 1 − InfectionProb (Eq. 8)
}

// NewChain validates the parameters and builds the chain.
func NewChain(params FlatParams) (*Chain, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	return &Chain{params: params, q: 1 - params.InfectionProb()}, nil
}

// Step advances a distribution over infected counts by one gossip round.
// dist[j] is P[s_t = j]; the result has the same length N+1. Unlike the
// paper's Eq. 10 we do not truncate the source states at j ≥ k/(1+F): the
// binomial transition already concentrates growth near j(1+F), and keeping
// the full sum conserves probability mass exactly (see DESIGN.md).
func (c *Chain) Step(dist []float64) []float64 {
	n := c.params.N
	out := make([]float64, n+1)
	for j, pj := range dist {
		if pj == 0 {
			continue
		}
		if j == 0 {
			out[0] += pj
			continue
		}
		pReach := 1 - math.Pow(c.q, float64(j))
		// Binomial(n−j, pReach) new infections.
		for k := j; k <= n; k++ {
			out[k] += pj * binomialPMF(n-j, pReach, k-j)
		}
	}
	return out
}

// Distribution returns P[s_t = ·] after t rounds starting from s_0 initially
// infected processes (s_0 = 1 for a fresh multicast; a subgroup joined by
// its R delegates starts at R, Section 4.3).
func (c *Chain) Distribution(s0, t int) []float64 {
	n := c.params.N
	dist := make([]float64, n+1)
	if s0 < 0 {
		s0 = 0
	}
	if s0 > n {
		s0 = n
	}
	dist[s0] = 1
	for r := 0; r < t; r++ {
		dist = c.Step(dist)
	}
	return dist
}

// ExpectedInfected evaluates Eq. 14: E[s_t] after t rounds from s_0.
func (c *Chain) ExpectedInfected(s0, t int) float64 {
	dist := c.Distribution(s0, t)
	e := 0.0
	for k, pk := range dist {
		e += float64(k) * pk
	}
	return e
}
