package harness

import "testing"

// goldenTraces pins the delivery-trace hashes of the pre-engine serial
// runtime (captured at PR 3) for the smoke and lossy-fleet campaigns, and
// of the pre-matching-engine runtime (captured at PR 5) for the soak
// campaign. The staged engine refactor's contract is that determinism is a
// degenerate configuration, not a second code path; the matching engine's
// contract is that compiled matchers and the susceptibility cache are
// semantically invisible — every cached answer is bit-for-bit what the
// naive walk produced, so seeded traces must not move. A hash moving here
// means the protocol's observable behavior changed — intentional protocol
// changes re-pin these constants and say why in the PR.
//
// smoke16 and lossy256 were re-pinned at PR 7: the fabric now draws ONE
// delay per batch envelope (it drew one per sub-message part, an artifact
// that let parts of one datagram arrive at different times), which shifts
// RNG consumption on every delayed campaign. soak256 is delay-free, so its
// hashes are untouched — direct evidence the link-model plumbing itself
// changed nothing when disabled.
var goldenTraces = map[string]map[int64]string{
	"smoke16": {
		1:  "f65fbbe6d35ef701b4a7ad7cbba509164d29bb4dee0d310d77005553d691a43b",
		42: "5b428b454df1073d47cc2c31f5b7681c81401dcf536c87a3db5f537a3e4d8f88",
	},
	"lossy256": {
		1:  "d21ca69a501e7a059a7848c897cd0a86cdda91f87bee706c44a8d21010532e57",
		42: "70382bc7e688c023bf6650319aceadfb0dcc544da986601e1ea26515942b7e15",
	},
	"soak256": {
		1:  "454fd0ed637045edbf1ed4a8ce2ce6b83ca1c6ed7aec0354a8506db26d2ee6d4",
		42: "9cf64bdce818f5ccba9342d3ba483027bba06225ce2c1945ee560cca8ec17c52",
	},
	// zipf64 pins the Zipf-skew workload layer (PR 10): the campaign runs
	// two flash-crowd flux waves over the skewed subscription model, so a
	// hash moving here means either the deterministic workload draw or the
	// flux replay machinery changed. The shared fold cache, interned
	// compiler and FPR oracle all ride under these hashes — they are
	// observational layers and must not move the trace.
	"zipf64": {
		1:  "a790dc1b6f8053df527eb2538ff242d66685236bae35383d0820383252f3abf7",
		42: "bd49d34a246476e4e3354e754a4f8aa01a6fc006e6947347686899a8e76d0569",
	},
}

// goldenZipf1M pins zipf1m seed 1, the 4096-node fleet whose every node folds
// every redraw through one shared fold cache. It sits apart from goldenTraces
// because the tests ranging over that table would each run the campaign
// again; TestZipf1MCampaign checks it on the one run it already makes.
const goldenZipf1M = "0340d3c5c8882b4f2c463db84b3ff39b33df1566575fe9c875e3865537da1f7d"

// TestEngineMatchesGoldenTraces replays the pinned (scenario, seed) pairs
// through the staged engine at parallelism 0 and demands the pre-refactor
// bytes, hash for hash.
func TestEngineMatchesGoldenTraces(t *testing.T) {
	for name, seeds := range goldenTraces {
		sc, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed, want := range seeds {
			if testing.Short() && sc.Nodes > 64 && seed != 1 {
				continue // one large replay is plenty under -short
			}
			res, err := sc.Run(seed)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Report.TraceSHA256; got != want {
				t.Errorf("%s seed %d: trace sha %s, golden %s — the engine no longer replays the serial runtime",
					name, seed, got, want)
			}
		}
	}
}
