package analysis

import (
	"math"
	"testing"
)

func TestPittelBasic(t *testing.T) {
	// T(n,F) = ln n (1/F + 1/ln(F+1)).
	want := math.Log(1000) * (1.0/2 + 1/math.Log(3))
	if got := Pittel(1000, 2, 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("Pittel(1000,2,0) = %g, want %g", got, want)
	}
	if got := Pittel(1000, 2, 1.5); math.Abs(got-(want+1.5)) > 1e-12 {
		t.Errorf("constant not added: %g", got)
	}
}

func TestPittelDegenerate(t *testing.T) {
	if Pittel(1, 2, 0) != 0 {
		t.Error("n=1 should need 0 rounds")
	}
	if Pittel(0.5, 2, 0) != 0 {
		t.Error("n<1 should need 0 rounds")
	}
	if Pittel(100, 0, 0) != 0 {
		t.Error("F=0 cannot spread")
	}
	if Pittel(100, -1, 0) != 0 {
		t.Error("negative F cannot spread")
	}
	if PittelLossAdjustedRounds(1, 2, 0, 0, 0) != 0 {
		t.Error("rounds for n=1 should be 0")
	}
}

func TestPittelConstantFloorsTinyAudiences(t *testing.T) {
	// The additive constant c is not conditioned on n: it keeps tiny
	// audiences gossiping a floor number of rounds (conservative tuning,
	// Section 3.3).
	if got := Pittel(1, 2, 2); got != 2 {
		t.Errorf("Pittel(1,2,2) = %g, want 2", got)
	}
	if got := Pittel(0.5, 2, 2); got != 2 {
		t.Errorf("Pittel(0.5,2,2) = %g, want 2", got)
	}
	if got := Pittel(0, 2, 2); got != 0 {
		t.Errorf("Pittel(0,2,2) = %g, want 0 (no audience)", got)
	}
	if got := Pittel(5, 0, 2); got != 0 {
		t.Errorf("Pittel(5,0,2) = %g, want 0 (no fanout)", got)
	}
}

func TestPittelGrowsWithN(t *testing.T) {
	prev := 0.0
	for _, n := range []float64{10, 100, 1000, 10000, 100000} {
		cur := Pittel(n, 3, 0)
		if cur <= prev {
			t.Fatalf("Pittel not increasing at n=%g: %g <= %g", n, cur, prev)
		}
		prev = cur
	}
}

func TestPittelNonMonotoneInRate(t *testing.T) {
	// The paper (§5.1): with fixed n and F, as the matching rate p_d
	// decreases, T(n·p_d, F·p_d) first increases then collapses to 0 at
	// p_d = 1/n. Verify the non-monotonicity and the terminal zero.
	n, f := 10000.0, 2.0
	tAt := func(pd float64) float64 { return Pittel(n*pd, f*pd, 0) }
	mid := tAt(0.05)
	if mid <= tAt(1.0) {
		t.Errorf("expected T at pd=0.05 (%g) to exceed T at pd=1 (%g)", mid, tAt(1.0))
	}
	if tAt(1.0/n) != 0 {
		t.Errorf("T at pd=1/n should be 0, got %g", tAt(1.0/n))
	}
	if tAt(0.0001) >= mid {
		t.Errorf("T should collapse towards small pd: T(1e-4)=%g >= T(0.05)=%g", tAt(0.0001), mid)
	}
}

func TestPittelRoundsCeil(t *testing.T) {
	raw := Pittel(1000, 2, 0)
	got := PittelLossAdjustedRounds(1000, 2, 0, 0, 0)
	if got != int(math.Ceil(raw)) {
		t.Errorf("rounds = %d, want ceil(%g)", got, raw)
	}
}

func TestPittelLossAdjusted(t *testing.T) {
	// Eq. 11: both n and F shrink by (1−ε)(1−τ).
	base := Pittel(1000, 2, 0)
	adj := PittelLossAdjusted(1000, 2, 0, 0.05, 0.01)
	factor := 0.95 * 0.99
	want := Pittel(1000*factor, 2*factor, 0)
	if math.Abs(adj-want) > 1e-12 {
		t.Errorf("loss adjusted = %g, want %g", adj, want)
	}
	// Losses reduce the effective fanout, so more rounds are needed than the
	// fanout-2 base would suggest for the smaller group... verify the
	// directional effect on fanout dominates: T with reduced F is larger at
	// the same n.
	if Pittel(1000, 2*factor, 0) <= base {
		t.Error("reduced fanout should increase rounds at fixed n")
	}
	if PittelLossAdjustedRounds(1, 2, 0, 0.1, 0.1) != 0 {
		t.Error("degenerate loss-adjusted rounds should be 0")
	}
}

func TestLogChoose(t *testing.T) {
	tests := []struct {
		n, k int
		want float64
	}{
		{5, 0, 1}, {5, 5, 1}, {5, 1, 5}, {5, 2, 10}, {10, 3, 120}, {52, 5, 2598960},
	}
	for _, tt := range tests {
		got := math.Exp(logChoose(tt.n, tt.k))
		if math.Abs(got-tt.want)/tt.want > 1e-9 {
			t.Errorf("C(%d,%d) = %g, want %g", tt.n, tt.k, got, tt.want)
		}
	}
	if !math.IsInf(logChoose(5, 6), -1) || !math.IsInf(logChoose(5, -1), -1) {
		t.Error("out-of-support logChoose should be -Inf")
	}
}

func TestBinomialPMF(t *testing.T) {
	// Sums to 1 and matches direct computation for a small case.
	n, p := 10, 0.3
	sum := 0.0
	for k := 0; k <= n; k++ {
		sum += binomialPMF(n, p, k)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("pmf sums to %g", sum)
	}
	want := 120 * math.Pow(0.3, 3) * math.Pow(0.7, 7) // C(10,3)=120
	if got := binomialPMF(10, 0.3, 3); math.Abs(got-want) > 1e-12 {
		t.Errorf("pmf(10,0.3,3) = %g, want %g", got, want)
	}
	// Degenerate p.
	if binomialPMF(5, 0, 0) != 1 || binomialPMF(5, 0, 1) != 0 {
		t.Error("p=0 pmf wrong")
	}
	if binomialPMF(5, 1, 5) != 1 || binomialPMF(5, 1, 4) != 0 {
		t.Error("p=1 pmf wrong")
	}
	if binomialPMF(5, 0.5, 6) != 0 || binomialPMF(5, 0.5, -1) != 0 {
		t.Error("out-of-support pmf should be 0")
	}
}
