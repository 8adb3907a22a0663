package analysis

import "math"

// Eq. 9 by itself, the oracle the tests hold Step's inlined transition to.

// TransitionProb evaluates Eq. 9: the probability p_jk of moving from j
// infected processes to k in one round,
//
//	p_jk = C(n−j, k−j) · (1 − q^j)^(k−j) · q^(j(n−k))
//
// — each of the n−j susceptibles is independently reached by at least one of
// the j infected with probability 1−q^j.
func (c *Chain) TransitionProb(j, k int) float64 {
	n := c.params.N
	if j < 0 || k < j || k > n {
		return 0
	}
	if j == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	pReach := 1 - math.Pow(c.q, float64(j)) // 1 − q^j
	return binomialPMF(n-j, pReach, k-j)
}

// DeliveryProbability returns the probability that one fixed interested
// process is infected after t rounds: E[s_t]/N with the initially infected
// process discounted (the origin counts itself). For reporting we use the
// plain fraction E[s_t]/N, matching the paper's "expected fraction of
// processes infected".
func (c *Chain) DeliveryProbability(s0, t int) float64 {
	if c.params.N == 0 {
		return 0
	}
	return c.ExpectedInfected(s0, t) / float64(c.params.N)
}
