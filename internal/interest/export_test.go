package interest

import "math"

// FullInterval returns the interval covering all reals.
func FullInterval() Interval {
	return Interval{Lo: math.Inf(-1), Hi: math.Inf(1), LoOpen: true, HiOpen: true}
}
