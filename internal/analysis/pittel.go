// Package analysis implements the stochastic model of pmcast (paper
// Section 4): Pittel's round asymptote (Eq. 3, 11), the flat-group infection
// Markov chain with message loss and crashes (Eq. 8–10, 14), and the
// tree-propagation model yielding the expected reliability degree
// (Eq. 7, 12, 13, 15–18).
//
// All heavy combinatorics run in log space (lgamma-based binomials), so the
// model is stable for group sizes well beyond the paper's n ≈ 10 000.
package analysis

import (
	"math"
)

// Pittel evaluates Eq. 3, the expected number of rounds to infect an entire
// group of (large) size n when every infected process gossips to F others
// per round:
//
//	T(n, F) = log n · (1/F + 1/log(F+1)) + c + O(1)
//
// with the constant c configurable (0 by default in pmcast, conservative
// values are the usual way to absorb environmental uncertainty, Section 3.3).
// The fanout may be fractional: pmcast conditions it by the matching rate
// (F·rate). Degenerate inputs yield 0: n ≤ 0 or F ≤ 0 mean gossip cannot or
// need not spread; at n ≤ 1 the logarithmic term vanishes (the paper notes T
// "becom[es] 0 for p_d = 1/n") and only the additive constant remains, so a
// conservative c keeps tiny audiences gossiping a floor number of rounds.
func Pittel(n, f, c float64) float64 {
	if n <= 0 || f <= 0 {
		return 0
	}
	t := c
	if n > 1 {
		t += math.Log(n) * (1/f + 1/math.Log(f+1))
	}
	return max(t, 0)
}

// PittelLossAdjusted evaluates Eq. 11: Pittel's estimate with the effective
// group size and fanout both discounted by message loss ε and crash
// probability τ,
//
//	T_f(n, F) = T(n(1−ε)(1−τ), F(1−ε)(1−τ)).
func PittelLossAdjusted(n, f, c, eps, tau float64) float64 {
	adj := (1 - eps) * (1 - tau)
	return Pittel(n*adj, f*adj, c)
}

// PittelLossAdjustedRounds is PittelLossAdjusted rounded up.
func PittelLossAdjustedRounds(n, f, c, eps, tau float64) int {
	t := PittelLossAdjusted(n, f, c, eps, tau)
	if t <= 0 {
		return 0
	}
	return int(math.Ceil(t))
}

// logChoose returns log C(n, k) via lgamma; -Inf outside the support.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	ln, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln - lk - lnk
}

// binomialPMF returns the Binomial(n, p) probability mass at k, computed in
// log space.
func binomialPMF(n int, p float64, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	switch {
	case p <= 0:
		if k == 0 {
			return 1
		}
		return 0
	case p >= 1:
		if k == n {
			return 1
		}
		return 0
	}
	lp := logChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
	return math.Exp(lp)
}
