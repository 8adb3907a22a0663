package sim

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestFloodValidation(t *testing.T) {
	bad := []FloodParams{
		{N: 0, F: 2},
		{N: 10, F: 0},
		{N: 10, F: 2, Eps: 1},
		{N: 10, F: 2, Tau: -0.1},
	}
	for _, p := range bad {
		if _, err := RunFlood(p, 0.5, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
	if _, err := RunFlood(FloodParams{N: 10, F: 2}, 1.5, rand.New(rand.NewSource(1))); err == nil {
		t.Error("pd > 1 accepted")
	}
}

func TestFloodInfectsEverybody(t *testing.T) {
	// A clean flood with decent fanout reaches essentially everyone —
	// including the uninterested (the paper's core complaint).
	res, err := RunFlood(FloodParams{N: 500, F: 3, C: 2}, 0.3, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRate() < 0.99 {
		t.Errorf("flood delivery = %g", res.DeliveryRate())
	}
	if res.UninterestedReceptionRate() < 0.95 {
		t.Errorf("flood should flood the uninterested too: %g", res.UninterestedReceptionRate())
	}
	if res.Messages == 0 || res.Rounds == 0 {
		t.Error("zero cost flood")
	}
}

func TestFloodLossDegrades(t *testing.T) {
	rngA, rngB := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	clean, err := RunFlood(FloodParams{N: 300, F: 2}, 0.5, rngA)
	if err != nil {
		t.Fatal(err)
	}
	// Heavy loss with a budget computed for the lossless case.
	lossy, err := RunFlood(FloodParams{N: 300, F: 2, Eps: 0.7}, 0.5, rngB)
	if err != nil {
		t.Fatal(err)
	}
	// Note: PittelLossAdjusted extends the budget under loss, so compare
	// infected counts normalized per message instead of absolute delivery.
	if lossy.DeliveredInterested+lossy.InfectedUninterested >=
		clean.DeliveredInterested+clean.InfectedUninterested {
		t.Errorf("loss did not reduce infections: lossy %d vs clean %d",
			lossy.DeliveredInterested+lossy.InfectedUninterested,
			clean.DeliveredInterested+clean.InfectedUninterested)
	}
}

func TestGenuineNeverTouchesUninterested(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		res, err := RunGenuine(GenuineParams{N: 200, ViewSize: 30, F: 3, C: 1},
			0.4, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if res.InfectedUninterested != 0 {
			t.Fatalf("seed %d: genuine multicast infected %d uninterested",
				seed, res.InfectedUninterested)
		}
	}
}

func TestGenuineIsolationWithSmallViews(t *testing.T) {
	// With tiny views and a sparse audience, genuine multicast strands
	// interested processes; compare against near-global knowledge.
	var globalSum, localSum float64
	const runs = 25
	for seed := int64(0); seed < runs; seed++ {
		global, err := RunGenuine(GenuineParams{N: 300, ViewSize: 299, F: 3, C: 2},
			0.05, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		local, err := RunGenuine(GenuineParams{N: 300, ViewSize: 10, F: 3, C: 2},
			0.05, rand.New(rand.NewSource(seed+1000)))
		if err != nil {
			t.Fatal(err)
		}
		globalSum += global.DeliveryRate()
		localSum += local.DeliveryRate()
	}
	if localSum/runs >= globalSum/runs {
		t.Errorf("small views should isolate: local %g >= global %g",
			localSum/runs, globalSum/runs)
	}
}

func TestGenuineValidation(t *testing.T) {
	if _, err := RunGenuine(GenuineParams{N: 10, ViewSize: 0, F: 2}, 0.5,
		rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero view accepted")
	}
	if _, err := RunGenuine(GenuineParams{N: 10, ViewSize: 5, F: 2}, -0.5,
		rand.New(rand.NewSource(1))); err == nil {
		t.Error("negative pd accepted")
	}
}

func TestDetTreeExactInStablePhase(t *testing.T) {
	// No loss, no crashes: the deterministic tree delivers to every
	// interested process and nobody else beyond delegates, at minimal cost.
	res, err := RunDeterministicTree(DetTreeParams{A: 8, D: 3, R: 2}, 0.5,
		rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRate() != 1 {
		t.Errorf("stable deterministic tree delivery = %g, want 1", res.DeliveryRate())
	}
	// Message cost well below flooding: each interested subtree pays one
	// hand-off plus leaf fan-out, far less than n·F·T.
	if res.Messages > 3*8*8*8 {
		t.Errorf("deterministic tree cost %d messages, suspiciously high", res.Messages)
	}
}

func TestDetTreeFragileUnderLoss(t *testing.T) {
	var stable, unstable float64
	const runs = 30
	for seed := int64(0); seed < runs; seed++ {
		a, err := RunDeterministicTree(DetTreeParams{A: 8, D: 3, R: 1}, 0.5,
			rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunDeterministicTree(DetTreeParams{A: 8, D: 3, R: 1, Eps: 0.15}, 0.5,
			rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		stable += a.DeliveryRate()
		unstable += b.DeliveryRate()
	}
	if unstable/runs > 0.9*stable/runs {
		t.Errorf("loss should sever subtrees: unstable %g vs stable %g",
			unstable/runs, stable/runs)
	}
}

func TestDetTreeRedundancyHelps(t *testing.T) {
	var r1, r3 float64
	const runs = 30
	for seed := int64(0); seed < runs; seed++ {
		a, err := RunDeterministicTree(DetTreeParams{A: 8, D: 3, R: 1, Eps: 0.2}, 0.5,
			rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunDeterministicTree(DetTreeParams{A: 8, D: 3, R: 3, Eps: 0.2}, 0.5,
			rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		r1 += a.DeliveryRate()
		r3 += b.DeliveryRate()
	}
	if r3 <= r1 {
		t.Errorf("delegate retries should improve delivery: R=3 %g <= R=1 %g", r3/runs, r1/runs)
	}
}

func TestDetTreeValidation(t *testing.T) {
	if _, err := RunDeterministicTree(DetTreeParams{A: 2, D: 2, R: 3}, 0.5,
		rand.New(rand.NewSource(1))); err == nil {
		t.Error("a < R accepted")
	}
}

func TestSampleDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	got := sampleDistinct(rng, 10, 3, 5)
	if len(got) != 5 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v == 3 || v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad sample %v", got)
		}
		seen[v] = true
	}
	// Requesting more than available caps at n−1.
	if got := sampleDistinct(rng, 4, 0, 99); len(got) != 3 {
		t.Errorf("capped sample len = %d, want 3", len(got))
	}
}

// TestArmsSeeOneDraw pins the fairness the baselines table rests on: fed
// equal RNG states, the simulator and the three baselines at n = a^d draw
// the same audience and the same publisher. The genuine arm picks its
// publisher before it draws its partial views.
func TestArmsSeeOneDraw(t *testing.T) {
	for _, c := range []struct {
		a, d, r int
		pd, tau float64
		seed    int64
	}{
		{a: 4, d: 2, r: 2, pd: 0.5, tau: 0, seed: 1},
		{a: 6, d: 3, r: 3, pd: 0.2, tau: 0.05, seed: 7},
		{a: 10, d: 2, r: 1, pd: 0.05, tau: 0.3, seed: 42},
		{a: 3, d: 4, r: 3, pd: 1, tau: 0.5, seed: 9},
	} {
		p := Params{A: c.a, D: c.d, R: c.r, F: 2, Eps: 0.01, Tau: c.tau}
		n := p.N()
		rng := func() *rand.Rand { return rand.New(rand.NewSource(c.seed)) }
		want, err := newSim(t, p).Run(c.pd, rng())
		if err != nil {
			t.Fatal(err)
		}
		dt, err := RunDeterministicTree(DetTreeParams{A: c.a, D: c.d, R: c.r, Eps: p.Eps, Tau: c.tau}, c.pd, rng())
		if err != nil {
			t.Fatal(err)
		}
		fl, err := RunFlood(FloodParams{N: n, F: 2, Eps: p.Eps, Tau: c.tau}, c.pd, rng())
		if err != nil {
			t.Fatal(err)
		}
		gn, err := RunGenuine(GenuineParams{N: n, ViewSize: c.a * c.r, F: 2, Eps: p.Eps, Tau: c.tau}, c.pd, rng())
		if err != nil {
			t.Fatal(err)
		}
		for arm, got := range map[string]Result{"dettree": dt, "flood": fl, "genuine": gn} {
			if got.Interested != want.Interested || got.Uninterested != want.Uninterested {
				t.Errorf("%+v %s: audience %d/%d, simulator %d/%d", c, arm,
					got.Interested, got.Uninterested, want.Interested, want.Uninterested)
			}
			if got.Publisher != want.Publisher {
				t.Errorf("%+v %s: publisher %d, simulator %d", c, arm, got.Publisher, want.Publisher)
			}
		}
	}
}

// TestAllCrashedDrawHasNoPublisher: a draw that crashes every process leaves
// nobody to publish, and every arm — the simulator and the three baselines —
// returns an error for it instead of searching forever for an alive
// publisher. At τ = 0.99 over two processes most seeds crash both; the runs
// whose draw left one alive must still succeed.
func TestAllCrashedDrawHasNoPublisher(t *testing.T) {
	s, err := New(Params{A: 2, D: 1, R: 1, F: 1, Tau: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	arms := map[string]func(*rand.Rand) (Result, error){
		"pmcast": func(rng *rand.Rand) (Result, error) { return s.Run(0.5, rng) },
		"flood": func(rng *rand.Rand) (Result, error) {
			return RunFlood(FloodParams{N: 2, F: 1, Tau: 0.99}, 0.5, rng)
		},
		"genuine": func(rng *rand.Rand) (Result, error) {
			return RunGenuine(GenuineParams{N: 2, ViewSize: 1, F: 1, Tau: 0.99}, 0.5, rng)
		},
		"tree": func(rng *rand.Rand) (Result, error) {
			return RunDeterministicTree(DetTreeParams{A: 2, D: 1, R: 1, Tau: 0.99}, 0.5, rng)
		},
	}
	for name, run := range arms {
		done := make(chan int, 1)
		go func() {
			refused := 0
			for seed := int64(0); seed < 20; seed++ {
				_, err := run(rand.New(rand.NewSource(seed)))
				switch {
				case errors.Is(err, errNoPublisher):
					refused++
				case err != nil:
					t.Errorf("%s, seed %d: %v", name, seed, err)
				}
			}
			done <- refused
		}()
		select {
		case refused := <-done:
			if refused == 0 {
				t.Errorf("%s: no seed of 20 crashed both processes", name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: a run still searches for an alive publisher after 10 s", name)
		}
	}
}
