package sim

import (
	"math/rand"
	"testing"

	"pmcast/internal/event"
)

func newSim(t *testing.T, p Params) *Simulator {
	t.Helper()
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{A: 2, D: 3, R: 3, F: 2},  // a < R
		{A: 10, D: 0, R: 3, F: 2}, // d = 0
		{A: 10, D: 2, R: 0, F: 2}, // R = 0
		{A: 10, D: 2, R: 2, F: 0}, // F = 0
		{A: 10, D: 2, R: 2, F: 2, Eps: 1.0},
		{A: 10, D: 2, R: 2, F: 2, Tau: -0.1},
	}
	for _, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

func TestParamsN(t *testing.T) {
	if got := (Params{A: 22, D: 3}).N(); got != 10648 {
		t.Errorf("N = %d", got)
	}
}

func TestViewGeometry(t *testing.T) {
	s := newSim(t, Params{A: 4, D: 3, R: 2, F: 2})
	for _, procIdx := range []int{0, 17, 33, 63} {
		for depth := 1; depth <= 3; depth++ {
			v := s.viewFor(procIdx, depth)
			wantSize := 4 * 2
			if depth == 3 {
				wantSize = 4
			}
			if v.Size() != wantSize {
				t.Errorf("proc %d depth %d size = %d, want %d", procIdx, depth, v.Size(), wantSize)
			}
			// Every member shares the process's prefix of length depth−1.
			selfAddr := s.addrs[procIdx]
			for k := 0; k < v.Size(); k++ {
				m := v.MemberAt(k)
				if !m.HasPrefix(selfAddr.Prefix(depth)) {
					t.Fatalf("proc %d depth %d member %s outside prefix %s",
						procIdx, depth, m, selfAddr.Prefix(depth))
				}
			}
			// SelfIndex consistency.
			if si := v.SelfIndex(); si >= 0 {
				if !v.MemberAt(si).Equal(selfAddr) {
					t.Errorf("proc %d depth %d self index mismatch", procIdx, depth)
				}
			}
		}
	}
	// At depth d every process is a member.
	for _, procIdx := range []int{0, 5, 63} {
		if s.viewFor(procIdx, 3).SelfIndex() < 0 {
			t.Errorf("proc %d missing from its leaf view", procIdx)
		}
	}
	// Delegate structure: process 0 (smallest address) is a member at every
	// depth; the largest leaf of a subtree is not a member above depth d.
	if s.viewFor(0, 1).SelfIndex() < 0 {
		t.Error("process 0 should sit in the root group")
	}
	if s.viewFor(15, 1).SelfIndex() >= 0 || s.viewFor(15, 2).SelfIndex() >= 0 {
		t.Error("process 15 (0.3.3) should not be a delegate above the leaves")
	}
}

func TestFullDeliveryEasyRegime(t *testing.T) {
	// pd=1, no loss, no crashes, generous fanout: everyone delivers.
	s := newSim(t, Params{A: 5, D: 2, R: 2, F: 3, C: 2})
	res, err := s.Run(1.0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Interested != 25 || res.Uninterested != 0 {
		t.Fatalf("audience: %+v", res)
	}
	if res.DeliveredInterested != 25 {
		t.Errorf("delivered %d of 25", res.DeliveredInterested)
	}
	if res.DeliveryRate() != 1 {
		t.Errorf("rate = %g", res.DeliveryRate())
	}
	if res.Rounds == 0 || res.Messages == 0 {
		t.Errorf("suspicious cost: %+v", res)
	}
}

func TestZeroAudience(t *testing.T) {
	s := newSim(t, Params{A: 4, D: 2, R: 2, F: 2})
	res, err := s.Run(0, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Interested != 0 {
		t.Fatalf("interested = %d", res.Interested)
	}
	if res.Messages != 0 {
		t.Errorf("messages = %d for empty audience", res.Messages)
	}
	if res.DeliveryRate() != 1 { // vacuous
		t.Errorf("vacuous delivery = %g", res.DeliveryRate())
	}
	if res.InfectedUninterested != 0 {
		t.Errorf("uninterested infected = %d", res.InfectedUninterested)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := newSim(t, Params{A: 6, D: 2, R: 2, F: 2, Eps: 0.1, Tau: 0.02})
	b := newSim(t, Params{A: 6, D: 2, R: 2, F: 2, Eps: 0.1, Tau: 0.02})
	for seed := int64(0); seed < 5; seed++ {
		ra, err := a.Run(0.4, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Run(0.4, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb {
			t.Fatalf("seed %d: %+v != %+v", seed, ra, rb)
		}
	}
}

func TestSimulatorReuseIsClean(t *testing.T) {
	// Back-to-back runs on one simulator must not leak state: a pd=1 run
	// after a pd=0 run still delivers fully.
	s := newSim(t, Params{A: 5, D: 2, R: 2, F: 3, C: 2})
	rng := rand.New(rand.NewSource(3))
	if _, err := s.Run(0, rng); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRate() != 1 {
		t.Errorf("delivery after reuse = %g", res.DeliveryRate())
	}
}

func TestLossDegradesDelivery(t *testing.T) {
	clean := newSim(t, Params{A: 8, D: 2, R: 2, F: 2})
	// The lossy protocol is deliberately *not* told about the loss
	// (AssumedEps = 0 keeps budgets tight), isolating the network effect.
	lossyBlind := newSim(t, Params{A: 8, D: 2, R: 2, F: 2, Eps: 0.6, AssumedEps: 0, AssumedTau: 0})
	aggClean, err := clean.RunMany(0.5, 30, 42)
	if err != nil {
		t.Fatal(err)
	}
	aggLossy, err := lossyBlind.RunMany(0.5, 30, 42)
	if err != nil {
		t.Fatal(err)
	}
	if aggLossy.Delivery.Mean() >= aggClean.Delivery.Mean() {
		t.Errorf("loss did not degrade delivery: %g >= %g",
			aggLossy.Delivery.Mean(), aggClean.Delivery.Mean())
	}
}

func TestCrashesDegradeDelivery(t *testing.T) {
	clean := newSim(t, Params{A: 8, D: 2, R: 2, F: 2})
	crashy := newSim(t, Params{A: 8, D: 2, R: 2, F: 2, Tau: 0.3, AssumedTau: 0})
	aggClean, err := clean.RunMany(0.5, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	aggCrashy, err := crashy.RunMany(0.5, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	if aggCrashy.Delivery.Mean() >= aggClean.Delivery.Mean() {
		t.Errorf("crashes did not degrade delivery: %g >= %g",
			aggCrashy.Delivery.Mean(), aggClean.Delivery.Mean())
	}
}

func TestUninterestedReceptionOnlyDelegates(t *testing.T) {
	// Untuned pmcast: uninterested *leaf-only* processes (non-delegates)
	// must never receive; uninterested delegates may. Verify per process.
	s := newSim(t, Params{A: 6, D: 3, R: 2, F: 2, C: 1})
	rng := rand.New(rand.NewSource(11))
	ev := event.ID{Origin: "sim", Seq: 1}
	for run := 0; run < 5; run++ {
		res, err := s.Run(0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < s.n; i++ {
			if s.run.interested[i] || i == res.Publisher {
				continue
			}
			// Non-delegate ⇔ not among the first R of its leaf subgroup at
			// any level ⇔ offset within parent subtree ≥ R.
			isDelegate := i%s.run.strides[s.params.D-1] < s.params.R
			if !isDelegate && s.procs[i].HasSeen(ev) {
				t.Fatalf("run %d: uninterested non-delegate %d received", run, i)
			}
		}
	}
}

func TestTuningImprovesSmallRateDelivery(t *testing.T) {
	base := newSim(t, Params{A: 10, D: 2, R: 3, F: 2})
	tuned := newSim(t, Params{A: 10, D: 2, R: 3, F: 2, Threshold: 6})
	const pd = 0.04 // ~4 interested of 100
	aggBase, err := base.RunMany(pd, 60, 99)
	if err != nil {
		t.Fatal(err)
	}
	aggTuned, err := tuned.RunMany(pd, 60, 99)
	if err != nil {
		t.Fatal(err)
	}
	if aggTuned.Delivery.Mean() <= aggBase.Delivery.Mean() {
		t.Errorf("tuning did not help small rates: tuned %g <= base %g",
			aggTuned.Delivery.Mean(), aggBase.Delivery.Mean())
	}
	// The compromise: more uninterested receptions.
	if aggTuned.UninterestedReception.Mean() < aggBase.UninterestedReception.Mean() {
		t.Errorf("tuning should not reduce uninterested receptions: %g < %g",
			aggTuned.UninterestedReception.Mean(), aggBase.UninterestedReception.Mean())
	}
}

func TestRunManyAggregates(t *testing.T) {
	s := newSim(t, Params{A: 5, D: 2, R: 2, F: 2})
	agg, err := s.RunMany(0.5, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Delivery.N() == 0 || agg.Rounds.N() != 10 || agg.Messages.N() != 10 {
		t.Errorf("aggregation counts off: %d %d %d",
			agg.Delivery.N(), agg.Rounds.N(), agg.Messages.N())
	}
	if agg.Delivery.Mean() < 0 || agg.Delivery.Mean() > 1 {
		t.Errorf("delivery mean = %g", agg.Delivery.Mean())
	}
	if _, err := s.Run(1.5, rand.New(rand.NewSource(1))); err == nil {
		t.Error("pd > 1 accepted")
	}
}

func TestResultRates(t *testing.T) {
	r := Result{Interested: 10, DeliveredInterested: 7, Uninterested: 20, InfectedUninterested: 5, Messages: 30}
	if r.DeliveryRate() != 0.7 {
		t.Errorf("delivery = %g", r.DeliveryRate())
	}
	if r.UninterestedReceptionRate() != 0.25 {
		t.Errorf("reception = %g", r.UninterestedReceptionRate())
	}
	empty := Result{Uninterested: 20, InfectedUninterested: 10, Messages: 10}
	if empty.DeliveryRate() != 1 || (Result{}).UninterestedReceptionRate() != 0 {
		t.Error("vacuous rates wrong")
	}
	// An empty audience's vacuous delivery is not averaged in; its other
	// metrics are.
	var agg Aggregate
	agg.Add(r)
	agg.Add(empty)
	if agg.Delivery.N() != 1 || agg.Delivery.Mean() != 0.7 {
		t.Errorf("delivery: n=%d mean=%g, want 1 run at 0.7", agg.Delivery.N(), agg.Delivery.Mean())
	}
	if agg.UninterestedReception.Mean() != 0.375 || agg.Messages.Mean() != 20 || agg.Rounds.N() != 2 {
		t.Errorf("reception %g, messages %g, rounds n=%d; want 0.375, 20, 2",
			agg.UninterestedReception.Mean(), agg.Messages.Mean(), agg.Rounds.N())
	}
}

func TestPaperScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale smoke test skipped in -short mode")
	}
	// One run at the paper's Figure 4 configuration: n = 10648.
	s := newSim(t, Params{A: 22, D: 3, R: 3, F: 2, C: 1})
	res, err := s.Run(0.5, rand.New(rand.NewSource(2024)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Interested < 4800 || res.Interested > 5800 {
		t.Fatalf("audience draw implausible: %d", res.Interested)
	}
	if res.DeliveryRate() < 0.9 {
		t.Errorf("paper-scale delivery at pd=0.5 = %g, want ≳0.9", res.DeliveryRate())
	}
	if res.UninterestedReceptionRate() > 0.25 {
		t.Errorf("uninterested reception = %g, implausibly high", res.UninterestedReceptionRate())
	}
}
