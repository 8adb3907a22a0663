package sim

import "math"

// Accumulator tracks the mean and variance of a metric across Monte-Carlo
// runs online (Welford's algorithm), with a normal-approximation confidence
// interval.
// The zero Accumulator is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 with no observations).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 with < 2 observations).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval around the mean.
func (a *Accumulator) CI95() float64 { return 1.96 * a.StdErr() }
