package harness

import (
	"time"

	"pmcast/internal/addr"
)

// JoinAt schedules count fresh joiners.
func (s *Scenario) JoinAt(at time.Duration, count int) *Scenario {
	s.Ops = append(s.Ops, Op{At: at, Kind: OpJoin, Count: count})
	return s
}

// TotalSubscriptions sums the fleet's subscription count (topics per node,
// wave 0) without building anything — the campaign-scale invariant the
// zipf1m acceptance test checks (≥1M).
func (w *ZipfWorkload) TotalSubscriptions(nodes int, space addr.Space) int {
	total := 0
	for i := 0; i < nodes; i++ {
		total += len(w.topicsFor(i, space.AddressAt(i).Digit(1), 0))
	}
	return total
}
