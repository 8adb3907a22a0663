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
	// Pinned at PR 14 from the serial fleet-scan loop, the commit before it
	// was deleted: the zero-lookahead campaigns (soak64 … churn1024) hold the
	// one-instant window and its pass-major pump to crash, rejoin, join, flux
	// and bursty-link waves; parity64, noisy256 and soak4k are delayed
	// campaigns that had no pin. Each hash was identical at -shards 1 and 8.
	"soak64": {
		1:  "004dd18080d359bbba5ea24b6370e5dee400b497cd55592b9425f379298744c0",
		42: "35eb8b0b8a60bc6e9872c2d08a025497e71403a586181863e5053065f74e2c0b",
	},
	"frontier64": {
		1:  "191feb19210bafb2b6ab5da371cc86441c82f06a97c058c0e18b8e7b56cdd2e5",
		42: "624f45aa0b38431e5afb93914b52ed0dd6c8b54b0aa9c00bd1c71c46feb7fd53",
	},
	"noisy64": {
		1:  "579221b2baa7d1aee9a88bf4fa056521839250821bcba6d4eccd5455c81b7fd0",
		42: "a9b7b2d5e0e246bb758f4d9886f4bfbae9e14b63d43930526433523eefc07aaf",
	},
	"manyattr512": {
		1:  "f1dc444b6740db426592ecd02b8adf7a9d78c9950da7c89022b0d2144760ddd4",
		42: "e6a46c81009abb8b3e39b5ece73ccd7e43e6b236f3bc4c7efb81335c4130a06b",
	},
	// bursty1024 and noisy256 were re-pinned when the adaptive fan-out loop
	// was deleted: both now run the coding layer (k=8, r=1) instead, and
	// these are the hashes the loop's last commit produced with that swap
	// made and the loop off.
	//
	// bursty1024 was re-pinned again when self-defense moved ahead of the
	// equal-stamp tie rule. A rejoined node restarts its line at stamp 1; on
	// these seeds a few redraw their subscription (stamp 2) before their
	// previous incarnation's tombstone (stamp 2) reaches them, and the tie
	// used to mark them dead in their own views for good. They now answer
	// alive at stamp 3, and each seed delivers one event more (2881 → 2882
	// and 2857 → 2858). Each hash is the same at -shards 1, 2 and 8.
	"bursty1024": {
		1:  "59acedd32ec259ccb1051007ef8d71cc896577dd5c62ca70a64688535cb2493c",
		42: "7c018b727e21a5361fce846eb4a78ed6506cae738f8c4139d7cffa06544d1e9f",
	},
	"churn1024": {
		1:  "30bb07dcee59c4f29eb10304e27b0e6819d725ed0cc9fbfb0343444fb4c8b307",
		42: "0228821affc62b265d3bee86e23cd24383d866660ed1dc2fe3d5f9f43c14c484",
	},
	"parity64": {
		1:  "34cd49867265c78ef550b425e98302b6df0193f31df04dfda2311ae28ada8b85",
		42: "083f92de1097067673831bf385644a5d804f8adc66ae294eb6b8238e84663de8",
	},
	"noisy256": {
		1:  "1f33ea60db8a205d49d3f32c1f0607d502a2f1e0e736dfcf229709129d6edd92",
		42: "406530c1e1e3a04940f5ee56d46c98a26ae812a8dae726f6d6b9cc6719bc1043",
	},
	"soak4k": { // skipped under -short
		1: "9c7c543da1b3eb34323713198ecfa6cc1e6e49924bc5519991b9bdc6a41118d4",
	},
}

// goldenZipf1M pins zipf1m seed 1, the 4096-node fleet whose every node folds
// every redraw through one shared fold cache. It sits apart from goldenTraces
// because the tests ranging over that table would each run the campaign
// again; TestZipf1MCampaign checks it on the one run it already makes.
const goldenZipf1M = "0340d3c5c8882b4f2c463db84b3ff39b33df1566575fe9c875e3865537da1f7d"

// TestEngineMatchesGoldenTraces replays the pinned (scenario, seed) pairs
// through the staged engine at parallelism 0, at each scenario's own worker
// count, and demands the pinned bytes, hash for hash. Each replay also checks
// the audience oracle: a summary over-approximates its subgroup, so every
// event's reach through the summaries covers its eligible audience.
func TestEngineMatchesGoldenTraces(t *testing.T) {
	for name, seeds := range goldenTraces {
		sc, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed, want := range seeds {
			if testing.Short() && (sc.Nodes > 64 && seed != 1 || sc.Nodes > 1024) {
				continue // one large replay is plenty under -short, and no 4k one
			}
			res, err := sc.Run(seed)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Report.TraceSHA256; got != want {
				t.Errorf("%s seed %d: trace sha %s, golden %s — the engine no longer replays the pinned runtime",
					name, seed, got, want)
			}
			for _, ev := range res.Report.Events {
				if ev.Reached < ev.Eligible {
					t.Errorf("%s seed %d: event %s reached %d < eligible %d — a summary dropped an interested member",
						name, seed, ev.ID, ev.Reached, ev.Eligible)
				}
			}
		}
	}
}
