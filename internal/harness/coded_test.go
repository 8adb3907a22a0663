package harness

import (
	"testing"

	"pmcast/internal/event"
)

// TestCodedZeroRepairsReplaysGoldenTraces pins the r = 0 identity: with
// FECSources set but FECRepairs at zero, the coding layer must collapse
// to the exact pre-FEC wire path — no extra sections, no extra fault
// draws — so every golden trace hash replays bit for bit. This is the
// contract that makes FECRepairs 0 a free no-op. It replays the
// four campaigns pinned before PR 14; the pins that PR added hold the event
// loop, which this identity does not touch.
func TestCodedZeroRepairsReplaysGoldenTraces(t *testing.T) {
	for _, name := range []string{"smoke16", "lossy256", "soak256", "zipf64"} {
		seeds := goldenTraces[name]
		sc, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		sc.Fleet.FECSources = 8
		sc.Fleet.FECRepairs = 0
		for seed, want := range seeds {
			if testing.Short() && sc.Nodes > 64 && seed != 1 {
				continue
			}
			res, err := sc.Run(seed)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Report.TraceSHA256; got != want {
				t.Errorf("%s seed %d with r=0 coding config: trace sha %s, golden %s — r=0 is no longer byte-identical",
					name, seed, got, want)
			}
		}
	}
}

// TestCodedDeliveryMonotone runs the coded fleet (k=8, r=2) against the
// uncoded one on the same (scenario, seed) pairs and demands redundancy
// never hurt: every (node, event) delivery the uncoded run achieved must
// also appear in the coded run — or, failing strict superset (the delayed
// revival can reshuffle who forwards what), the coded run's reliability
// must be at least the uncoded run's.
func TestCodedDeliveryMonotone(t *testing.T) {
	for _, name := range []string{"smoke16", "lossy256"} {
		sc, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 42} {
			if testing.Short() && sc.Nodes > 64 && seed != 1 {
				continue
			}
			uncoded, err := sc.Run(seed)
			if err != nil {
				t.Fatal(err)
			}
			coded := sc
			coded.Fleet.FECSources = 8
			coded.Fleet.FECRepairs = 2
			codedRes, err := coded.Run(seed)
			if err != nil {
				t.Fatal(err)
			}
			if superset(codedRes.Delivered, uncoded.Delivered) {
				continue
			}
			cr, ur := codedRes.Report.MeanReliability, uncoded.Report.MeanReliability
			if cr < ur {
				t.Errorf("%s seed %d: coded run is neither a delivery superset nor reliability-monotone (coded %.6f < uncoded %.6f)",
					name, seed, cr, ur)
			}
		}
	}
}

// superset reports whether every (node, event) pair in want also appears
// in got.
func superset(got, want map[string][]event.ID) bool {
	for node, ids := range want {
		have := make(map[event.ID]struct{}, len(got[node]))
		for _, id := range got[node] {
			have[id] = struct{}{}
		}
		for _, id := range ids {
			if _, ok := have[id]; !ok {
				return false
			}
		}
	}
	return true
}
