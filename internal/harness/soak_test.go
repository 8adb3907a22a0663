package harness

import "testing"

// The unbatched reference, recorded at commit 3a457e0 — the last one whose
// node could send one envelope per message. On the delay-free soak fabrics
// the per-send path delivered byte-identical traces at these envelope costs;
// the round-envelope pipeline must keep matching the trace and stay strictly
// below the cost.
const (
	soak64Seed                  = 3
	soak64UnbatchedEnvPerEvent  = 314.65 // 106 982 envelopes / 340 events
	soak64UnbatchedTrace        = "4b593a4418c8bebea1e1c95b776c7f37aeb16953f9d83413e0b3719bfd40b82e"
	soak256Seed                 = 7
	soak256UnbatchedEnvPerEvent = 1523.81 // 2 438 100 envelopes / 1 600 events
	soak256UnbatchedTrace       = "30ba0d33509db492a5c8d1b6c926cb5f34f34d3c1d240c3bbc040bd6cd1f2e03"
)

// checkSoak runs one soak campaign and holds its report to the recorded
// unbatched reference: the throughput metrics are present, envelopes/event
// sits strictly below what the per-send path paid, the trace is the one that
// path produced, and a second run at the same seed replays it.
func checkSoak(t *testing.T, mk func() Scenario, seed int64, unbatchedEnvPerEvent float64, unbatchedTrace string) Report {
	t.Helper()
	res, err := mk().Run(seed)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	t.Logf("%s: wall=%dms %.0f events/s, %.1f env/event vs %.1f unbatched, %.0f bytes/event",
		rep.Scenario, rep.WallMillis, rep.EventsPerSec, rep.EnvelopesPerEvent,
		unbatchedEnvPerEvent, rep.BytesPerEvent)
	if rep.EventsPerSec <= 0 || rep.EnvelopesPerEvent <= 0 || rep.BytesPerEvent <= 0 {
		t.Errorf("throughput metrics missing: %+v", rep)
	}
	if rep.EnvelopesPerEvent >= unbatchedEnvPerEvent {
		t.Errorf("envelopes/event %.2f not strictly below the recorded unbatched %.2f",
			rep.EnvelopesPerEvent, unbatchedEnvPerEvent)
	}
	if rep.TraceSHA256 != unbatchedTrace {
		t.Errorf("trace %s diverges from the recorded unbatched trace %s",
			rep.TraceSHA256, unbatchedTrace)
	}
	replay, err := mk().Run(seed)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Report.TraceSHA256 != rep.TraceSHA256 {
		t.Errorf("same-seed replay diverges: %s vs %s", replay.Report.TraceSHA256, rep.TraceSHA256)
	}
	return rep
}

// TestSoak64Throughput exercises the sustained-traffic workload class: the
// soak report must carry the throughput metrics, round envelopes must cost
// strictly fewer envelopes/event than the recorded per-send reference while
// delivering its exact trace, and the run must replay byte-identically.
func TestSoak64Throughput(t *testing.T) {
	rep := checkSoak(t, Soak64, soak64Seed, soak64UnbatchedEnvPerEvent, soak64UnbatchedTrace)
	if rep.Published < 300 {
		t.Errorf("published %d events, want a sustained stream of ≥ 300", rep.Published)
	}
	if rep.MeanReliability < 0.9 {
		t.Errorf("mean reliability %.3f below 0.9 under soak churn", rep.MeanReliability)
	}
}

// TestSoak256Acceptance is the batching acceptance criterion at full size:
// the soak256 report carries events/sec, envelopes/event and bytes/event,
// and — the soak fabrics being delay-free, so grouping a round's sends per
// peer changes no fault draw — delivers the byte-identical trace of the
// recorded per-send run at strictly fewer envelopes/event, deterministically
// per seed.
func TestSoak256Acceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size soak skipped in -short")
	}
	checkSoak(t, Soak256, soak256Seed, soak256UnbatchedEnvPerEvent, soak256UnbatchedTrace)
}
