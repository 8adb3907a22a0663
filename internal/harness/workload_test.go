package harness

import (
	"math"
	"math/rand"
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
