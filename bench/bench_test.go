package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pmcast/internal/addr"
	"pmcast/internal/transport"
)

func TestPercentileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.99, 10}, {0.9, 9}, {0.05, 1}, {1, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median odd = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
}

// The spread must be the one the contract computes:
// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	got := quartileSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 5, 9], n=4) is [3.0, 5.0, 9.0].
	if got, want := quartileSpread([]float64{5, 3, 9}), 6.0/5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread of three = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("quartileSpread of one = %v, want 0", got)
	}
}

func TestWindowedIgnoresPartialAndOutside(t *testing.T) {
	at := []int64{5, 15, 16, 25, 99, -3}
	val := []float64{1, 2, 4, 8, 16, 32}
	got := windowed(3, 0, 10, len(at), func(i int) int64 { return at[i] }, func(i int) float64 { return val[i] },
		func(s []float64) float64 { return s[len(s)-1] })
	want := []float64{1, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("windowed = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("windowed = %v, want %v", got, want)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	parent := span{Start: 100, End: 200}
	kids := []span{
		{Start: 110, End: 130},
		{Start: 120, End: 150}, // overlaps the first: 110–150 covered once
		{Start: 190, End: 260}, // clipped to the parent's end
		{Start: 10, End: 50},   // outside
	}
	if got := selfTime(parent, kids); got != 100-40-10 {
		t.Errorf("selfTime = %d, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestEligibility(t *testing.T) {
	a, b := newTopicSet(8), newTopicSet(8)
	a.add(1)
	b.add(1)
	b.add(2)
	h := subHistory{times: []int64{math.MinInt64, 1000}, sets: []topicSet{a, b}}
	const before, after = 100, 200
	for _, c := range []struct {
		topic int
		due   int64
		want  bool
	}{
		{1, 500, true},   // stable, matches
		{2, 500, false},  // stable, does not match
		{1, 850, false},  // the redraw at 1000 falls inside [750, 1050]
		{1, 1050, false}, // ... and inside [950, 1250]
		{2, 1101, true},  // window [1001, 1301] is after the redraw
		{1, 799, true},   // window [699, 999] ends just before it
	} {
		if got := h.eligible(c.topic, c.due, before, after); got != c.want {
			t.Errorf("eligible(topic %d, due %d) = %v, want %v", c.topic, c.due, got, c.want)
		}
	}
	if !h.matchedWithin(2, 900, 1100) || h.matchedWithin(2, 100, 900) {
		t.Error("matchedWithin must see topic 2 only once the second set is in force")
	}
	all := subHistory{times: []int64{math.MinInt64}, sets: []topicSet{nil}}
	if !all.eligible(-1, 5, before, after) || !all.matchedWithin(-1, 0, 5) {
		t.Error("a nil set is match-all")
	}
}

// A workload whose audiences are sparse must gossip to its whole view each
// round: with a smaller fan-out a round can miss the one interested subtree,
// the budget can run out first, and `failed` stops being 0.
func TestSparseAudiencesFloodTheView(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadOrder {
		w := cfg.Workloads[name]
		if w.Subscriptions != "zipf" {
			continue
		}
		// A publisher that is no delegate gossips to a view it is not in.
		if view := cfg.Protocol.R * w.Arity; cfg.fanout(w) < view {
			t.Errorf("%s: fan-out %d leaves members of a %d-member view unpicked in a round", name, cfg.fanout(w), view)
		}
	}
	if cfg.eligibleAfter() > cfg.deadline() {
		t.Error("eligibility must not outlast the deadline")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadOrder[:3] {
		w := cfg.Workloads[name]
		dur := phaseDurations(w, 2)
		a, b, c := generate(cfg, w, 1, dur, 4), generate(cfg, w, 1, dur, 4), generate(cfg, w, 2, dur, 4)
		if a.SHA != b.SHA {
			t.Errorf("%s: same seed gave workload_sha %s and %s", name, a.SHA, b.SHA)
		}
		if a.SHA == c.SHA {
			t.Errorf("%s: seeds 1 and 2 gave the same workload_sha %s", name, a.SHA)
		}
		// The population is the workload's, not the seed's.
		for i := range a.Subs {
			if len(a.Subs[i]) != len(c.Subs[i]) || (len(a.Subs[i]) > 0 && a.Subs[i].subscription().String() != c.Subs[i].subscription().String()) {
				t.Errorf("%s: node %d subscribes differently under seeds 1 and 2", name, i)
				break
			}
		}
	}
}

// batchEndpoint is an endpoint with both batch seams, recording their use.
type batchEndpoint struct {
	transport.Endpoint
	sent, received int
}

func (b *batchEndpoint) SendMany(msgs []transport.Outgoing) error { b.sent += len(msgs); return nil }
func (b *batchEndpoint) RecvMany(out []transport.Envelope) (int, bool) {
	b.received++
	return 0, false
}

type oneEndpointTransport struct{ ep transport.Endpoint }

func (o oneEndpointTransport) Attach(addr.Address) (transport.Endpoint, error) { return o.ep, nil }
func (o oneEndpointTransport) Close() error                                    { return nil }

// The traced run must stay on the kernel-batched path: the wrapper has to
// offer both seams and hand batches to the endpoint's own.
func TestTracerKeepsBatchSeams(t *testing.T) {
	inner := &batchEndpoint{}
	tr := newTracer(0, addr.Address{})
	ep, err := tr.wrap(oneEndpointTransport{inner}).Attach(addr.New(0))
	if err != nil {
		t.Fatal(err)
	}
	bs, ok := ep.(transport.BatchSender)
	if !ok {
		t.Fatal("traced endpoint lost transport.BatchSender")
	}
	br, ok := ep.(transport.BatchReceiver)
	if !ok {
		t.Fatal("traced endpoint lost transport.BatchReceiver")
	}
	if err := bs.SendMany(make([]transport.Outgoing, 3)); err != nil {
		t.Fatal(err)
	}
	br.RecvMany(make([]transport.Envelope, 4))
	if inner.sent != 3 || inner.received != 1 {
		t.Errorf("batch calls did not reach the endpoint's own seams: sent %d, received %d", inner.sent, inner.received)
	}
	if got := tr.spanTotals(false); got[spanSendMany][0] != 1 || got[spanRecvMany][0] != 1 {
		t.Errorf("spans recorded: %v", got)
	}
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestBenchmarkJSONAgrees(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != cfg.DefaultSeconds {
		t.Errorf("BENCHMARK.json runs %v s, workloads.json defaults to %v s", bf.RunSeconds, cfg.DefaultSeconds)
	}
	if len(bf.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloadOrder))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloadOrder[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %s [%s], the program %s [%s]", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %s [%s], the program %s [%s]", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}

func TestVerdict(t *testing.T) {
	old := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		new    []float64
		higher bool
		bound  float64
		want   string
	}{
		{"flat", []float64{100, 100, 101, 99, 101}, false, 0.05, "ok"},
		{"slower", []float64{110, 111, 109, 112, 110}, false, 0.05, "regressed"},
		{"faster", []float64{90, 91, 89, 92, 90}, false, 0.05, "ok"},
		{"lower throughput", []float64{90, 91, 89, 92, 90}, true, 0.05, "regressed"},
		{"noisy", []float64{60, 140, 100, 90, 120}, false, 0.05, "unresolved"},
		{"noisy but every run better", []float64{50, 80, 60, 70, 90}, false, 0.05, "ok"},
	} {
		if got, _, _ := verdict(old, c.new, c.higher, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSmoke drives every workload end to end in its seconds-long shape, and
// one of them through the traced pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs live fleets for a few seconds")
	}
	run := func(t *testing.T, name string, trace int) *runRecord {
		cfg, err := loadConfig()
		if err != nil {
			t.Fatal(err)
		}
		cfg.applySmoke()
		rec, err := runWorkload(cfg, cfg.Workloads[name], options{seed: 1, trace: trace, smoke: true, traceDir: t.TempDir(), report: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Correct {
			t.Errorf("%s: output checks failed", name)
		}
		if rec.Attempted < 1 || rec.Failed > rec.Attempted/10 {
			t.Errorf("%s: %d of %d operations failed", name, rec.Failed, rec.Attempted)
		}
		// The record must survive the trip the driver reads it through.
		var back result
		if err := json.Unmarshal([]byte(marshalLine(rec.result)), &back); err != nil {
			t.Fatal(err)
		}
		want := len(endToEnd)
		if trace != 0 {
			want = len(perLayer)
		}
		if len(back.Metrics) != want {
			t.Errorf("%s: %d metrics in the result line, want %d", name, len(back.Metrics), want)
		}
		return rec
	}
	for _, name := range workloadOrder {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rec := run(t, name, 0)
			for m, v := range rec.Metrics {
				if !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, m, v.Value)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		cfg, err := loadConfig()
		if err != nil {
			t.Fatal(err)
		}
		cfg.applySmoke()
		rec, err := runWorkload(cfg, cfg.Workloads["udp_broadcast"], options{seed: 1, trace: 1, smoke: true, traceDir: dir, report: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for name, v := range rec.Metrics {
			if len(name) > 12 && name[:12] == "layer_share." {
				sum += v.Value
			}
		}
		if math.Abs(sum-100) > 1e-6 {
			t.Errorf("layer shares sum to %v%%, want 100", sum)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-udp_broadcast.jsonl")); err != nil {
			t.Errorf("traced pass wrote no span file: %v", err)
		}
	})
}
