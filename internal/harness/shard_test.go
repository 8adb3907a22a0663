package harness

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pmcast/internal/addr"
)

// TestChurn16kShardedRace drives the full churn16k campaign across eight
// worker goroutines under the race detector: every coordinator/worker
// barrier handoff, fabric route, cross-worker delivery and clock replay runs
// instrumented. It only buys anything when the detector is on — the
// uninstrumented build skips it and leaves behavioral coverage to the
// equivalence tests — and it pins the campaign's trace hash, so the race run
// is simultaneously a determinism check at 16k scale. (A one-worker cell at
// this scale does not fit the race job's budget; TestShardedTraceEquivalence
// and TestDirtySetCoversEveryInbox run the inline worker instrumented.)
func TestChurn16kShardedRace(t *testing.T) {
	if !raceEnabled {
		t.Skip("race detector off: TestShardedTraceEquivalence covers behavior")
	}
	if testing.Short() {
		t.Skip("full 16k campaign under the race detector is minutes of wall clock")
	}
	sc, err := Lookup("churn16k")
	if err != nil {
		t.Fatal(err)
	}
	sc.Shards = 8
	res, err := sc.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	const want = "78f387805cbb45015fb8c0559f2f0cfa056781bb03b3886667f0123a89016bf7"
	if got := res.Report.TraceSHA256; got != want {
		t.Errorf("churn16k seed 1 shards 8: trace sha %s, want %s", got, want)
	}
}

// TestShardedTraceEquivalence is the event loop's contract test: for a given
// (scenario, seed), the merged delivery trace is the pinned golden at any
// worker count. smoke16 and lossy256 carry link delays, so two and eight
// workers genuinely run the windowed loop in parallel. soak256 and noisy64
// are delay-free: their lookahead is zero, so whatever is asked for they run
// the one-instant window on one inline worker, and the report must say so
// (Shards == 1).
func TestShardedTraceEquivalence(t *testing.T) {
	cases := []string{
		"smoke16",
		"lossy256",
		"soak256",
		"noisy64",
		// zipf64 has jittered link delays (positive lookahead) AND the
		// Zipf flux waves, so it is the equivalence check for the skewed
		// workload layer: flux replay must merge identically across worker
		// counts.
		"zipf64",
	}
	for _, name := range cases {
		base, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 42} {
			if testing.Short() && (seed != 1 || base.Nodes > 64) {
				continue
			}
			want, ok := goldenTraces[name][seed]
			if !ok {
				t.Fatalf("%s seed %d has no golden trace", name, seed)
			}
			for _, workers := range []int{1, 2, 8} {
				sc := base
				sc.Shards = workers
				res, err := sc.Run(seed)
				if err != nil {
					t.Fatalf("%s seed %d workers %d: %v", name, seed, workers, err)
				}
				wantWorkers := workers
				if base.lookahead() <= 0 {
					wantWorkers = 1
				}
				if res.Report.Shards != wantWorkers {
					t.Errorf("%s seed %d: asked for %d workers, report says %d, want %d",
						name, seed, workers, res.Report.Shards, wantWorkers)
				}
				if got := res.Report.TraceSHA256; got != want {
					t.Errorf("%s seed %d workers %d: trace sha %s, want %s — the worker count changed the delivery trace",
						name, seed, workers, got, want)
				}
			}
		}
	}
}

// TestOneWorkerRunsInline holds the loop to its goroutine budget: one worker
// — asked for, or forced by a zero lookahead — executes on the coordinator
// goroutine, and only two or more are started as goroutines. The count is
// sampled from inside the run, each time a worker closes an instant.
func TestOneWorkerRunsInline(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		extra   int32 // goroutines the run may add
	}{
		{"smoke16", 1, 0},
		{"smoke16", 2, 2},
		{"noisy64", 8, 0}, // zero lookahead: one inline worker whatever is asked
	}
	for _, tc := range cases {
		sc, err := Lookup(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		sc.Shards = tc.workers
		before := int32(runtime.NumGoroutine())
		var peak atomic.Int32
		_, err = sc.run(1, func(*run, int, time.Time) {
			g := int32(runtime.NumGoroutine()) - before
			for old := peak.Load(); g > old && !peak.CompareAndSwap(old, g); old = peak.Load() {
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := peak.Load(); got != tc.extra {
			t.Errorf("%s at %d workers: the loop ran %d extra goroutines, want %d",
				tc.name, tc.workers, got, tc.extra)
		}
	}
}

// TestDirtySetCoversEveryInbox checks the invariant the loop pumps by: every
// way into an inbox or a delivery channel marks its node dirty, so once a
// worker has closed an instant none of its alive nodes — pumped or not —
// holds a queued envelope or delivery. churn1024 and noisy64 hand messages
// over synchronously, through crash, rejoin and join waves, so a missed mark
// would strand an envelope here (a whole-fleet scan used to hide one).
func TestDirtySetCoversEveryInbox(t *testing.T) {
	for _, name := range []string{"churn1024", "noisy64"} {
		sc, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		instants := 0
		_, err = sc.run(1, func(r *run, worker int, at time.Time) {
			instants++
			for i := worker; i < len(r.handles); i += len(r.eng.workers) {
				h := r.handles[i]
				if h == nil || !h.alive {
					continue
				}
				// A stranded envelope would be handled by this probe; the
				// run is already wrong by then, and the test says so.
				if n := h.n.PumpInbox(); n > 0 {
					t.Errorf("%s at %v: node %s outside the dirty set held %d envelopes",
						name, at.Sub(r.start), h.key, n)
				}
				if n := len(h.n.Deliveries()); n > 0 {
					t.Errorf("%s at %v: node %s outside the dirty set held %d deliveries",
						name, at.Sub(r.start), h.key, n)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if instants == 0 {
			t.Errorf("%s: the hook never ran", name)
		}
	}
}

// TestMergeRunsOrdersAndPanics: the replay merge visits ascending runs in
// global key order — ties on the instant broken by phase, origin and issue
// order — and refuses a run that does not ascend.
func TestMergeRunsOrdersAndPanics(t *testing.T) {
	key := func(k *schedKey) schedKey { return *k }
	runs := [][]schedKey{
		{{whenNs: 1, a: 3}, {whenNs: 2, phase: 2, a: 1}, {whenNs: 4}},
		nil,
		{{whenNs: 1, a: 3, ord: 1}, {whenNs: 2, phase: 1}, {whenNs: 3}},
		{{whenNs: 0}, {whenNs: 2, phase: 2, a: 1, ord: 2}},
	}
	var got []schedKey
	mergeRuns(runs, key, func(k *schedKey) { got = append(got, *k) })
	if len(got) != 8 {
		t.Fatalf("merge visited %d keys, want 8", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].less(got[i-1]) {
			t.Fatalf("merge visited %+v after %+v", got[i], got[i-1])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a run out of key order merged without a panic")
		}
	}()
	mergeRuns([][]schedKey{{{whenNs: 1}}, {{whenNs: 2}, {whenNs: 2, ord: -1}}}, key, func(*schedKey) {})
}

// TestScheduleInWindowAllocatesNothing: a delivery scheduled inside a window
// is one entry in its worker's buffer and nothing more — once the buffer is
// warm, the schedule allocates nothing.
func TestScheduleInWindowAllocatesNothing(t *testing.T) {
	space := addr.MustRegular(2, 3)
	w := &shardWorker{live: true, cursor: time.Unix(0, 0)}
	w.eng = &shardEngine{r: &run{space: space}, workers: []*shardWorker{w}}
	c := &nodeClock{w: w}
	owner, f := space.AddressAt(5), func() {}
	schedule := func() {
		c.AfterFuncOwned(owner, time.Millisecond, f)
		clear(w.scheds) // as the barrier replay leaves the buffer
		w.scheds = w.scheds[:0]
	}
	schedule()
	if allocs := testing.AllocsPerRun(100, schedule); allocs != 0 {
		t.Errorf("a schedule in a window allocates %v times, want 0", allocs)
	}
}
