package harness

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pmcast/internal/addr"
)

func testWorkload(alpha float64, seed int64) *ZipfWorkload {
	return NewZipfWorkload(ZipfWorkload{
		Topics:   512,
		Alpha:    alpha,
		MeanSubs: 24,
		MaxSubs:  128,
		Locality: 0.8,
		Arity:    4,
		Seed:     seed,
	})
}

// TestZipfWorkloadDeterministic: every draw is a pure function of
// (Seed, index, wave) — two independently constructed workloads agree
// draw for draw, and a different seed actually changes the draws.
func TestZipfWorkloadDeterministic(t *testing.T) {
	a, b := testWorkload(1.0, 7), testWorkload(1.0, 7)
	other := testWorkload(1.0, 8)
	differs := false
	for index := 0; index < 64; index++ {
		for wave := int64(0); wave < 3; wave++ {
			ta := a.topicsFor(index, index%4, wave)
			tb := b.topicsFor(index, index%4, wave)
			if len(ta) != len(tb) {
				t.Fatalf("index %d wave %d: %d topics vs %d", index, wave, len(ta), len(tb))
			}
			for i := range ta {
				if ta[i] != tb[i] {
					t.Fatalf("index %d wave %d topic %d: %q vs %q", index, wave, i, ta[i], tb[i])
				}
			}
			to := other.topicsFor(index, index%4, wave)
			if len(to) != len(ta) {
				differs = true
			} else {
				for i := range ta {
					if to[i] != ta[i] {
						differs = true
						break
					}
				}
			}
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 drew identical topic sets everywhere — the seed is not salting the draw")
	}
}

// TestZipfRankFrequencySlope: the sampler's empirical rank-frequency curve
// is a power law with the configured exponent — the log-log slope over the
// head ranks fits −α within tolerance.
func TestZipfRankFrequencySlope(t *testing.T) {
	for _, alpha := range []float64{0.5, 1.0} {
		w := testWorkload(alpha, 1)
		rng := rand.New(rand.NewSource(99))
		const draws = 200_000
		freq := make([]int, w.Topics)
		for i := 0; i < draws; i++ {
			freq[w.rankFor(rng.Float64())]++
		}
		const head = 32
		var n, sx, sy, sxx, sxy float64
		for k := 0; k < head; k++ {
			if freq[k] == 0 {
				t.Fatalf("alpha=%g: head rank %d drew zero samples", alpha, k)
			}
			x, y := math.Log(float64(k+1)), math.Log(float64(freq[k]))
			n++
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
		}
		slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
		if math.Abs(slope+alpha) > 0.1 {
			t.Errorf("alpha=%g: rank-frequency slope %.3f, want %.3f ± 0.1", alpha, slope, -alpha)
		}
	}
}

// TestZipfFluxWaveInversion: odd waves are the flash-crowd flip — the
// popularity ranking inverts, so the mean drawn rank jumps from the head
// of the vocabulary to its tail.
func TestZipfFluxWaveInversion(t *testing.T) {
	w := NewZipfWorkload(ZipfWorkload{
		Topics: 512, Alpha: 1.0, MeanSubs: 12, MaxSubs: 32, Locality: 0, Arity: 4, Seed: 3,
	})
	meanRank := func(wave int64) float64 {
		total, count := 0, 0
		for index := 0; index < 256; index++ {
			for _, name := range w.topicsFor(index, 0, wave) {
				rank := 0
				for _, c := range name[1:] {
					rank = rank*10 + int(c-'0')
				}
				total += rank
				count++
			}
		}
		return float64(total) / float64(count)
	}
	even, odd := meanRank(0), meanRank(1)
	mid := float64(w.Topics) / 2
	if !(even < mid && odd > mid) {
		t.Errorf("mean drawn rank even-wave %.1f, odd-wave %.1f — odd waves should invert the ranking around %.0f",
			even, odd, mid)
	}
}

// TestZipf1MCampaign is the zipf1m acceptance gate: the fleet's wave-0
// subscription load exceeds one million, the campaign completes under the
// event loop at eight workers at ≥0.999 reliability, replays its pinned trace
// (goldenZipf1M) at its pinned fold_recompiles, and the PR-10 report fields
// — class_reliability, summary_false_positive_rate — are populated. The full
// campaign is ~8s of wall clock on two cores, so -short only checks the
// subscription count.
func TestZipf1MCampaign(t *testing.T) {
	w := NewZipfWorkload(zipf1MWorkload())
	space, err := addr.NewSpace(4, 4, 4, 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Lookup("zipf1m")
	if err != nil {
		t.Fatal(err)
	}
	if total := w.TotalSubscriptions(sc.Nodes, space); total < 1_000_000 {
		t.Fatalf("zipf1m fleet carries %d subscriptions, want ≥ 1,000,000", total)
	}
	if testing.Short() {
		t.Skip("full 4096-node zipf1m campaign is ~8s of wall clock")
	}
	res, err := sc.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.TraceSHA256 != goldenZipf1M {
		t.Errorf("trace sha %s, golden %s", rep.TraceSHA256, goldenZipf1M)
	}
	if rep.MeanReliability < 0.999 {
		t.Errorf("mean reliability %.4f < 0.999", rep.MeanReliability)
	}
	if rep.MinReliability < 0.999 {
		t.Errorf("min reliability %.4f < 0.999", rep.MinReliability)
	}
	// Exact since fold-cache puts became put-if-absent (PR 13): the shared
	// engine's regrouping cost on this campaign, the meter the deleted
	// legacy-vs-shared skew sweep existed to compare.
	if rep.FoldRecomputes != 5802 {
		t.Errorf("fold_recompiles %d, want 5802", rep.FoldRecomputes)
	}
	// Every other trie node below the root a change touched, fleet-wide, was
	// served from the shared store — whole, or its regrouping: what the trees
	// touch is a function of the campaign, not of which tree built a node
	// first. The root, a line in no view, counts in neither meter: 1 508 244
	// while it was folded, less its 19 626 touches, every one of them a hit.
	if rep.FoldCacheHits != 1488618 {
		t.Errorf("fold_cache_hits %d, want 1488618", rep.FoldCacheHits)
	}
	if rep.SummaryFPRate <= 0 || rep.SummaryFPRate >= 1 {
		t.Errorf("summary_false_positive_rate %.4f, want in (0, 1)", rep.SummaryFPRate)
	}
	if len(rep.ClassReliability) == 0 {
		t.Error("class_reliability not populated")
	}
	for _, cr := range rep.ClassReliability {
		if cr.Audienced > 0 && cr.MeanReliability < 0.999 {
			t.Errorf("popularity bucket %d: reliability %.4f < 0.999",
				cr.Bucket, cr.MeanReliability)
		}
	}
}

// TestRankForMatchesSearch: the guide-table lookup is the binary search it
// fronts — the clamped sort.SearchFloat64s over the CDF — at the interval
// ends, at every k/Topics, every guide bucket edge and every CDF step (each
// with its float neighbours, where rounding would put u in the wrong
// bucket), and at a spread of seeded uniforms.
func TestRankForMatchesSearch(t *testing.T) {
	for _, alpha := range []float64{0.6, 1, 1.4} {
		for _, topics := range []int{1, 2, 3, 256, 4096} {
			w := NewZipfWorkload(ZipfWorkload{Topics: topics, Alpha: alpha})
			check := func(u float64) {
				want := min(sort.SearchFloat64s(w.cum, u), topics-1)
				if got := w.rankFor(u); got != want {
					t.Fatalf("alpha=%g topics=%d: rankFor(%v) = %d, search gives %d", alpha, topics, u, got, want)
				}
			}
			withNeighbours := func(u float64) {
				check(math.Nextafter(u, math.Inf(-1)))
				check(u)
				check(math.Nextafter(u, math.Inf(1)))
			}
			check(0)
			check(1 - 0x1p-53)
			for k := 0; k <= topics; k++ {
				withNeighbours(float64(k) / float64(topics))
			}
			for b := range w.guide {
				withNeighbours(float64(b) / float64(len(w.guide)-1))
			}
			for _, c := range w.cum {
				withNeighbours(c)
			}
			rng := rand.New(rand.NewSource(int64(topics)))
			for i := 0; i < 100_000; i++ {
				check(rng.Float64())
			}
		}
	}
}

// referenceTopicsFor is topicsFor as it was before the bitset, the guide
// table and the pooled generator: a fresh source per call, a map of picked
// ranks, names in draw order, then sorted as strings the way OneOf sorts
// them.
func referenceTopicsFor(w *ZipfWorkload, index int, group int, wave int64) []string {
	rng := rand.New(rand.NewSource(int64(index)*0x9e3779b9 + wave*0x85ebca6b + w.Seed*0xc2b2ae35 + 1))
	count := w.countFor(rng)
	picked := make(map[int]bool, count)
	names := make([]string, 0, count)
	add := func(rank int) {
		if !picked[rank] {
			picked[rank] = true
			names = append(names, w.topicName(rank))
		}
	}
	rankFor := func(u float64) int { return min(sort.SearchFloat64s(w.cum, u), w.Topics-1) }
	for tries := 0; len(names) < count && tries < 4*count+16; tries++ {
		rank := rankFor(rng.Float64())
		if rng.Float64() < w.Locality {
			rank = w.rotate(rank, group)
		}
		if wave%2 == 1 {
			rank = w.Topics - 1 - rank
		}
		add(rank)
	}
	for rank := 0; len(names) < count && rank < w.Topics; rank++ {
		add(w.rotate(rank, group))
	}
	sort.Strings(names)
	return names
}

// TestTopicsForMatchesReference: the faster draw is the old draw — the same
// topic set for every node of zipf1m's and zipf64's workloads, in the
// initial wave and three flux waves (both parities of the popularity flip).
func TestTopicsForMatchesReference(t *testing.T) {
	for _, c := range []struct {
		w             ZipfWorkload
		arity, levels int
	}{
		{zipf1MWorkload(), 4, 6},
		{zipf64Workload(), 4, 3},
	} {
		w := NewZipfWorkload(c.w)
		space, err := addr.Regular(c.arity, c.levels)
		if err != nil {
			t.Fatal(err)
		}
		// Drawn on every core, as a campaign's initial draw is, so the
		// race detector sees the pooled scratch shared.
		parallelFor(space.Capacity(), func(i int) {
			group := space.AddressAt(i).Digit(1)
			for wave := int64(0); wave <= 3; wave++ {
				got, want := w.topicsFor(i, group, wave), referenceTopicsFor(w, i, group, wave)
				if !slices.Equal(got, want) {
					t.Errorf("%d topics, node %d wave %d: drew %v, reference %v", w.Topics, i, wave, got, want)
				}
			}
		})
	}
}

// TestTopicNamesSortInRankOrder: past 99 999 topics the zero padding widens,
// so names still sort lexically in rank order — and below that width every
// name keeps the five-digit form the pinned traces were recorded with.
func TestTopicNamesSortInRankOrder(t *testing.T) {
	w := NewZipfWorkload(ZipfWorkload{Topics: 100_001, Alpha: 1})
	for k := 1; k < w.Topics; k++ {
		if w.topicName(k) <= w.topicName(k-1) {
			t.Fatalf("topic %q (rank %d) does not sort after %q (rank %d)", w.topicName(k), k, w.topicName(k-1), k-1)
		}
	}
	if got := w.topicName(100_000); got != "t100000" {
		t.Errorf("rank 100000 named %q, want t100000", got)
	}
	if got := w.topicName(7); got != "t000007" {
		t.Errorf("rank 7 of 100 001 named %q, want t000007", got)
	}
	small := NewZipfWorkload(ZipfWorkload{Topics: 100_000, Alpha: 1})
	if got := small.topicName(7); got != "t00007" {
		t.Errorf("rank 7 of 100 000 named %q, want t00007", got)
	}
}
