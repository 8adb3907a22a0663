package analysis

import (
	"math"
	"testing"
)

func mustChain(t *testing.T, p FlatParams) *Chain {
	t.Helper()
	c, err := NewChain(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFlatParamsValidate(t *testing.T) {
	bad := []FlatParams{
		{N: -1, F: 2},
		{N: 10, F: 2, Eps: 1},
		{N: 10, F: 2, Eps: -0.1},
		{N: 10, F: 2, Tau: 1},
		{N: 10, F: 2, Tau: -0.5},
	}
	for _, p := range bad {
		if _, err := NewChain(p); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

func TestInfectionProb(t *testing.T) {
	// Eq. 8 exactly.
	p := FlatParams{N: 101, F: 2, Eps: 0.1, Tau: 0.05}
	want := 2.0 / 100.0 * 0.9 * 0.95
	if got := p.InfectionProb(); math.Abs(got-want) > 1e-15 {
		t.Errorf("p = %g, want %g", got, want)
	}
	// Clamped at 1 when F ≥ n−1.
	if got := (FlatParams{N: 2, F: 5}).InfectionProb(); got != 1 {
		t.Errorf("overfull fanout p = %g, want 1", got)
	}
	if got := (FlatParams{N: 1, F: 5}).InfectionProb(); got != 0 {
		t.Errorf("singleton p = %g, want 0", got)
	}
}

func TestTransitionRowsSumToOne(t *testing.T) {
	c := mustChain(t, FlatParams{N: 30, F: 2.5, Eps: 0.05, Tau: 0.01})
	for j := 0; j <= 30; j++ {
		sum := 0.0
		for k := 0; k <= 30; k++ {
			sum += c.TransitionProb(j, k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %d sums to %g", j, sum)
		}
	}
}

func TestTransitionMonotone(t *testing.T) {
	c := mustChain(t, FlatParams{N: 20, F: 2})
	// Infected count never decreases: p_jk = 0 for k < j.
	for j := 0; j <= 20; j++ {
		for k := 0; k < j; k++ {
			if got := c.TransitionProb(j, k); got != 0 {
				t.Fatalf("p_%d%d = %g, want 0", j, k, got)
			}
		}
	}
	// State 0 and N are absorbing.
	if c.TransitionProb(0, 0) != 1 {
		t.Error("state 0 not absorbing")
	}
	if got := c.TransitionProb(20, 20); math.Abs(got-1) > 1e-12 {
		t.Errorf("full state not absorbing: %g", got)
	}
}

func TestDistributionConservesMass(t *testing.T) {
	c := mustChain(t, FlatParams{N: 40, F: 1.5, Eps: 0.1, Tau: 0.02})
	for _, rounds := range []int{0, 1, 5, 15} {
		dist := c.Distribution(1, rounds)
		sum := 0.0
		for _, p := range dist {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("after %d rounds mass = %g", rounds, sum)
		}
	}
}

func TestExpectedInfectedGrowsAndSaturates(t *testing.T) {
	c := mustChain(t, FlatParams{N: 50, F: 3})
	prev := 0.0
	for rounds := 0; rounds <= 12; rounds++ {
		e := c.ExpectedInfected(1, rounds)
		if e < prev-1e-9 {
			t.Fatalf("E[s] decreased at round %d: %g < %g", rounds, e, prev)
		}
		prev = e
	}
	// With fanout 3 and plenty of rounds, nearly everyone is infected.
	if prev < 49 {
		t.Errorf("after 12 rounds E[s] = %g, want ≈50", prev)
	}
	if got := c.ExpectedInfected(1, 0); got != 1 {
		t.Errorf("0 rounds E[s] = %g, want 1", got)
	}
}

func TestLossReducesInfection(t *testing.T) {
	clean := mustChain(t, FlatParams{N: 60, F: 2})
	lossy := mustChain(t, FlatParams{N: 60, F: 2, Eps: 0.3})
	crashy := mustChain(t, FlatParams{N: 60, F: 2, Tau: 0.3})
	rounds := 6
	ec, el, ecr := clean.ExpectedInfected(1, rounds), lossy.ExpectedInfected(1, rounds), crashy.ExpectedInfected(1, rounds)
	if el >= ec {
		t.Errorf("loss did not slow infection: %g >= %g", el, ec)
	}
	if ecr >= ec {
		t.Errorf("crashes did not slow infection: %g >= %g", ecr, ec)
	}
	// ε and τ enter Eq. 8 symmetrically.
	if math.Abs(el-ecr) > 1e-9 {
		t.Errorf("symmetric ε/τ gave different results: %g vs %g", el, ecr)
	}
}

func TestHigherS0Faster(t *testing.T) {
	c := mustChain(t, FlatParams{N: 50, F: 2})
	if c.ExpectedInfected(3, 4) <= c.ExpectedInfected(1, 4) {
		t.Error("more initially infected should infect faster")
	}
	// s0 out of range is clamped.
	if got := c.ExpectedInfected(99, 0); got != 50 {
		t.Errorf("clamped s0 = %g", got)
	}
	if got := c.ExpectedInfected(-3, 0); got != 0 {
		t.Errorf("negative s0 = %g", got)
	}
}

func TestDeliveryProbability(t *testing.T) {
	c := mustChain(t, FlatParams{N: 25, F: 4})
	p := c.DeliveryProbability(1, 10)
	if p < 0.95 || p > 1 {
		t.Errorf("delivery = %g, want ≈1", p)
	}
	empty := mustChain(t, FlatParams{N: 0, F: 2})
	if empty.DeliveryProbability(1, 5) != 0 {
		t.Error("empty group delivery should be 0")
	}
}

// TestFlatReliabilityConvenience: the expected fraction of a flat group
// infected after the loss-adjusted Pittel bound of rounds, from one infected
// process, is high.
func TestFlatReliabilityConvenience(t *testing.T) {
	params := FlatParams{N: 100, F: 3, Eps: 0.05, Tau: 0.01}
	rounds := PittelLossAdjustedRounds(float64(params.N), params.F, 0, params.Eps, params.Tau)
	if got := mustChain(t, params).DeliveryProbability(1, rounds); got < 0.8 || got > 1 {
		t.Errorf("flat reliability = %g", got)
	}
	if _, err := NewChain(FlatParams{N: -1, F: 3}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestChainMatchesMonteCarloRoughly(t *testing.T) {
	// Cross-validate Eq. 9 against a tiny hand-rolled simulation of the same
	// stochastic model (each susceptible infected w.p. 1−q^j per round).
	params := FlatParams{N: 12, F: 2, Eps: 0.1}
	c := mustChain(t, params)
	wantE := c.ExpectedInfected(1, 3)

	q := 1 - params.InfectionProb()
	const trials = 60000
	var total float64
	rng := newSplitMix(12345)
	for tr := 0; tr < trials; tr++ {
		infected := 1
		for round := 0; round < 3; round++ {
			pReach := 1 - math.Pow(q, float64(infected))
			newly := 0
			for s := 0; s < params.N-infected; s++ {
				if rng.float64() < pReach {
					newly++
				}
			}
			infected += newly
		}
		total += float64(infected)
	}
	gotE := total / trials
	if math.Abs(gotE-wantE) > 0.15 {
		t.Errorf("Monte Carlo E[s]=%g vs chain %g", gotE, wantE)
	}
}

// splitMix is a tiny deterministic RNG for the cross-validation test,
// independent of math/rand ordering guarantees.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix) float64() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}
