package experiments

import (
	"testing"

	"pmcast/internal/harness"
	"pmcast/internal/transport"
)

// TestFrontierCodedBeatsUncodedHighFanout pins the acceptance point of the
// coding layer: on the churn-free frontier64 campaign at 40% ambient loss,
// a coded fleet at reduced fan-out (f=6, k=8, r=2) matches-or-beats the
// uncoded high-fan-out baseline (f=7) on BOTH axes — mean reliability no
// worse, bytes per event no higher — averaged over eight seeds. The
// harness is deterministic, so this is a fixed-point regression: any
// change to the wire, the coder, or the revival policy that erodes the
// Pareto win trips it.
func TestFrontierCodedBeatsUncodedHighFanout(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed frontier sweep is a long test")
	}
	base, err := harness.Lookup("frontier64")
	if err != nil {
		t.Fatal(err)
	}
	const loss = 0.40
	var (
		codedRel, codedBytes     float64
		uncodedRel, uncodedBytes float64
		recoveries               int64
	)
	const seeds = 8
	for seed := int64(1); seed <= seeds; seed++ {
		coded, err := FrontierPointAt(base, seed, loss, transport.LinkModel{}, 6, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		uncoded, err := FrontierPointAt(base, seed, loss, transport.LinkModel{}, 7, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		codedRel += coded.MeanReliability
		codedBytes += coded.BytesPerEvent
		uncodedRel += uncoded.MeanReliability
		uncodedBytes += uncoded.BytesPerEvent
		recoveries += coded.FECRecoveries
		if uncoded.FECRecoveries != 0 || uncoded.RepairBytesPerEvent != 0 {
			t.Fatalf("seed %d: uncoded baseline shows FEC activity: %+v", seed, uncoded)
		}
	}
	codedRel /= seeds
	codedBytes /= seeds
	uncodedRel /= seeds
	uncodedBytes /= seeds
	t.Logf("loss %.2f over %d seeds: coded f=6 k=8 r=2 rel %.6f bytes %.1f | uncoded f=7 rel %.6f bytes %.1f",
		loss, seeds, codedRel, codedBytes, uncodedRel, uncodedBytes)
	if codedRel < uncodedRel {
		t.Errorf("coded mean reliability %.6f fell below uncoded %.6f", codedRel, uncodedRel)
	}
	if codedBytes > uncodedBytes {
		t.Errorf("coded bytes/event %.1f exceeded uncoded %.1f", codedBytes, uncodedBytes)
	}
	if recoveries == 0 {
		t.Error("coded cells recorded zero FEC recoveries — the coding layer never fired")
	}
}

// TestFrontierPointShape checks one coded and one uncoded cell populate
// the point fields consistently: the uncoded cell carries no repair
// traffic, the coded cell accounts its repair bytes inside the total.
func TestFrontierPointShape(t *testing.T) {
	base, err := harness.Lookup("frontier64")
	if err != nil {
		t.Fatal(err)
	}
	coded, err := FrontierPointAt(base, 1, 0.20, transport.LinkModel{}, 6, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	uncoded, err := FrontierPointAt(base, 1, 0.20, transport.LinkModel{}, 6, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if coded.Scenario != "frontier64" || coded.F != 6 || coded.K != 8 || coded.R != 2 {
		t.Fatalf("coded point mislabeled: %+v", coded)
	}
	if coded.RepairBytesPerEvent <= 0 {
		t.Fatalf("coded cell shows no repair bytes: %+v", coded)
	}
	if coded.BytesPerEvent <= coded.RepairBytesPerEvent {
		t.Fatalf("repair bytes not contained in total: %+v", coded)
	}
	if uncoded.RepairBytesPerEvent != 0 || uncoded.FECRecoveries != 0 {
		t.Fatalf("uncoded cell shows FEC activity: %+v", uncoded)
	}
	if coded.MeanReliability <= 0 || uncoded.MeanReliability <= 0 {
		t.Fatalf("reliability missing: coded %+v uncoded %+v", coded, uncoded)
	}
	if coded.RoundsToDeliveryP99 <= 0 {
		t.Fatalf("latency tail missing: %+v", coded)
	}
}

// TestFrontierLinkedRepinsCodedWin holds the coded Pareto win under
// correlated loss: on Gilbert–Elliott chains, a coded fleet (k=8) matches or
// beats an uncoded fleet at higher fan-out on mean reliability at no more
// bytes per event, averaged over four seeds, with recoveries to show the
// code fired; each cell's Loss field must be the chain's stationary rate.
func TestFrontierLinkedRepinsCodedWin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed linked frontier sweep is a long test")
	}
	cases := []struct {
		scenario       string
		link           transport.LinkModel
		codedF, codedR int
		uncodedF       int
	}{
		// Deep bursts at a high stationary rate, 0.04/(0.04+0.10) ≈ 28.6%,
		// averaging 10 messages: a whole generation's wire copies can die in
		// one burst.
		{"frontier64", transport.LinkModel{BadLoss: 1, PGB: 0.04, PBG: 0.10}, 6, 2, 7},
		// noisy64's own chains, ≈ 9.1% in bursts of 5: one repair at base
		// fan-out against the fan-out raised by two.
		{"noisy64", harness.Noisy64().Link, 3, 1, 5},
	}
	for _, tc := range cases {
		t.Run(tc.scenario, func(t *testing.T) {
			base, err := harness.Lookup(tc.scenario)
			if err != nil {
				t.Fatal(err)
			}
			var (
				codedRel, codedBytes     float64
				uncodedRel, uncodedBytes float64
				recoveries               int64
			)
			const seeds = 4
			for seed := int64(1); seed <= seeds; seed++ {
				coded, err := FrontierPointAt(base, seed, 0, tc.link, tc.codedF, 8, tc.codedR)
				if err != nil {
					t.Fatal(err)
				}
				uncoded, err := FrontierPointAt(base, seed, 0, tc.link, tc.uncodedF, 8, 0)
				if err != nil {
					t.Fatal(err)
				}
				want := tc.link.PGB / (tc.link.PGB + tc.link.PBG)
				if diff := coded.Loss - want; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("seed %d: linked cell Loss %.6f, want stationary %.6f", seed, coded.Loss, want)
				}
				codedRel += coded.MeanReliability
				codedBytes += coded.BytesPerEvent
				uncodedRel += uncoded.MeanReliability
				uncodedBytes += uncoded.BytesPerEvent
				recoveries += coded.FECRecoveries
			}
			codedRel /= seeds
			codedBytes /= seeds
			uncodedRel /= seeds
			uncodedBytes /= seeds
			t.Logf("over %d seeds: coded f=%d k=8 r=%d rel %.6f bytes %.1f | uncoded f=%d rel %.6f bytes %.1f",
				seeds, tc.codedF, tc.codedR, codedRel, codedBytes, tc.uncodedF, uncodedRel, uncodedBytes)
			if codedRel < uncodedRel {
				t.Errorf("coded mean reliability %.6f fell below uncoded %.6f under bursty loss", codedRel, uncodedRel)
			}
			if codedBytes > uncodedBytes {
				t.Errorf("coded bytes/event %.1f exceeded uncoded %.1f under bursty loss", codedBytes, uncodedBytes)
			}
			if recoveries == 0 {
				t.Error("coded cells recorded zero FEC recoveries under bursty loss")
			}
		})
	}
}
