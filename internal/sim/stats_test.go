package sim

import (
	"math"
	"math/rand"
	"testing"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Variance() != 0 || a.StdErr() != 0 {
		t.Error("zero accumulator not neutral")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Errorf("n = %d", a.N())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("mean = %g, want 5", a.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if math.Abs(a.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("variance = %g, want %g", a.Variance(), 32.0/7.0)
	}
	if math.Abs(a.StdDev()-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Errorf("stddev = %g", a.StdDev())
	}
	wantSE := math.Sqrt(32.0/7.0) / math.Sqrt(8)
	if math.Abs(a.StdErr()-wantSE) > 1e-12 {
		t.Errorf("stderr = %g, want %g", a.StdErr(), wantSE)
	}
	if math.Abs(a.CI95()-1.96*wantSE) > 1e-12 {
		t.Errorf("ci95 = %g", a.CI95())
	}
}

func TestSingleObservation(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Mean() != 3.5 || a.Variance() != 0 {
		t.Errorf("single obs: mean %g var %g", a.Mean(), a.Variance())
	}
}

func TestLargeSampleConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var a Accumulator
	for i := 0; i < 200000; i++ {
		a.Add(rng.NormFloat64()*2 + 10)
	}
	if math.Abs(a.Mean()-10) > 0.05 {
		t.Errorf("mean = %g, want ≈10", a.Mean())
	}
	if math.Abs(a.StdDev()-2) > 0.05 {
		t.Errorf("stddev = %g, want ≈2", a.StdDev())
	}
}
