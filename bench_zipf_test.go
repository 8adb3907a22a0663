// Benchmarks of the shared-summary matching engine under Zipf-skewed
// subscription workloads:
//
//   - BenchmarkZipfMatchStream: steady-state matching throughput of one
//     process profiling a stream of fresh Zipf-distributed events against
//     a skew-subscribed fleet, with the per-event comparison cost as a
//     custom metric;
//   - BenchmarkZipfCampaign: the full zipf64 campaign, recording wall
//     time, fold recompiles and the measured summary false-positive rate.
//
// One campaign iteration is one full deterministic run; use -benchtime 1x.
package pmcast_test

import (
	"math/rand"
	"testing"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/harness"
	"pmcast/internal/tree"
)

// zipfTree builds a 256-node 4^4 fleet subscribed through the Zipf
// workload model (512 topics, α=1, heavy-tailed counts, subtree locality).
func zipfTree(tb testing.TB) (*tree.Tree, *harness.ZipfWorkload, addr.Space) {
	tb.Helper()
	space := addr.MustRegular(4, 4)
	w := harness.NewZipfWorkload(harness.ZipfWorkload{
		Topics:   512,
		Alpha:    1.0,
		MeanSubs: 24,
		MaxSubs:  128,
		Locality: 0.8,
		Arity:    4,
		Seed:     1,
	})
	members := make([]tree.Member, space.Capacity())
	for i := range members {
		a := space.AddressAt(i)
		members[i] = tree.Member{Addr: a, Sub: w.SubscriptionFor(a, i)}
	}
	t, err := tree.Build(tree.Config{Space: space, R: 2}, members)
	if err != nil {
		tb.Fatal(err)
	}
	return t, w, space
}

// BenchmarkZipfMatchStream streams fresh Zipf-distributed events through
// one process's full-depth susceptibility profiling — the cold path every
// published event pays once before the cache serves its gossip rounds.
func BenchmarkZipfMatchStream(b *testing.B) {
	tr, w, space := zipfTree(b)
	proc, err := core.BuildProcess(tr, space.AddressAt(0), core.Config{F: 4, C: 3})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	evs := make([]event.Event, b.N)
	for i := range evs {
		class := rng.Int63n(512)
		evs[i] = event.New(
			event.ID{Origin: "bench", Seq: uint64(i)},
			w.EventFor(class, rng),
		)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := 1; d <= tr.Depth(); d++ {
			proc.ProfileFor(evs[i], d)
		}
	}
	b.StopTimer()
	ms := proc.MatchStats()
	if ms.Misses > 0 {
		b.ReportMetric(float64(ms.Comparisons)/float64(b.N), "comparisons/event")
	}
}

// BenchmarkZipfCampaign runs the zipf64 campaign end to end, reporting the
// fold meters and the measured regrouping false-positive rate alongside
// wall time.
func BenchmarkZipfCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := harness.Lookup("zipf64")
		if err != nil {
			b.Fatal(err)
		}
		res, err := sc.Run(1)
		if err != nil {
			b.Fatal(err)
		}
		rep := res.Report
		b.ReportMetric(float64(rep.WallMillis), "wall-ms")
		b.ReportMetric(float64(rep.FoldRecomputes), "fold-recompiles")
		b.ReportMetric(float64(rep.FoldCacheHits), "fold-cache-hits")
		b.ReportMetric(rep.SummaryFPRate, "summary-fp-rate")
		b.ReportMetric(rep.MeanReliability, "reliability")
	}
}
