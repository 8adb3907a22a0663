// Benchmarks for the loss-aware adaptive fan-out loop: the ablation cells
// — the base fixed arm, the raised fixed arm, and the adaptive arm on the
// bursty-link noisy64 campaign, each reporting reliability and bytes/event
// as custom metrics — plus the PR 6 frontier acceptance cells re-run under
// Gilbert–Elliott bursts. One iteration is one full seeded campaign.
package pmcast_test

import (
	"fmt"
	"testing"

	"pmcast/internal/experiments"
	"pmcast/internal/harness"
	"pmcast/internal/transport"
)

// BenchmarkAdaptiveAblation runs the three ablation arms on noisy64 (~9%
// stationary loss in mean-length-5 bursts), one sub-benchmark per (arm,
// seed) over four seeds so the JSON artifact records every acceptance
// cell. The recorded claim: the adaptive arm's reliability matches the
// raised fixed arm's at fewer bytes/event, and beats the base fixed arm's
// outright, on every seed.
func BenchmarkAdaptiveAblation(b *testing.B) {
	base, err := harness.Lookup("noisy64")
	if err != nil {
		b.Fatal(err)
	}
	arms := []struct {
		name     string
		f        int
		adaptive bool
	}{
		{"fixed_f3", 3, false},
		{"fixed_f5", 5, false},
		{"adaptive_f3", 3, true},
	}
	for _, arm := range arms {
		for seed := int64(1); seed <= 4; seed++ {
			b.Run(fmt.Sprintf("%s/seed%d", arm.name, seed), func(b *testing.B) {
				var rel, minRel, bytes, boosts float64
				for i := 0; i < b.N; i++ {
					cell, err := experiments.AdaptiveCellAt(base, arm.name, seed, arm.f, arm.adaptive)
					if err != nil {
						b.Fatal(err)
					}
					rel += cell.MeanReliability
					minRel += cell.MinReliability
					bytes += cell.BytesPerEvent
					boosts += float64(cell.AdaptiveBoosts)
				}
				n := float64(b.N)
				b.ReportMetric(rel/n, "reliability")
				b.ReportMetric(minRel/n, "min-reliability")
				b.ReportMetric(bytes/n, "bytes/event")
				b.ReportMetric(boosts/n, "boosts")
			})
		}
	}
}

// BenchmarkFrontierPointBursty re-runs the PR 6 frontier acceptance cells
// under correlated loss: deep Gilbert–Elliott bursts (~28.6% stationary)
// instead of Bernoulli drops. The coded arm's Pareto win must survive the
// burstier fault model — the cells record where it lands.
func BenchmarkFrontierPointBursty(b *testing.B) {
	base, err := harness.Lookup("frontier64")
	if err != nil {
		b.Fatal(err)
	}
	link := transport.LinkModel{BadLoss: 1, PGB: 0.04, PBG: 0.10}
	cells := []struct {
		name    string
		f, k, r int
	}{
		{"coded_f6_k8_r2", 6, 8, 2},
		{"uncoded_f7", 7, 8, 0},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			var rel, bytes, rounds float64
			for i := 0; i < b.N; i++ {
				pt, err := experiments.FrontierPointLinked(base, 1, link, c.f, c.k, c.r)
				if err != nil {
					b.Fatal(err)
				}
				rel += pt.MeanReliability
				bytes += pt.BytesPerEvent
				rounds += pt.RoundsToDeliveryP99
			}
			n := float64(b.N)
			b.ReportMetric(rel/n, "reliability")
			b.ReportMetric(bytes/n, "bytes/event")
			b.ReportMetric(rounds/n, "rounds-p99")
		})
	}
}
