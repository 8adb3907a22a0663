package main

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/event"
	"pmcast/internal/harness"
)

// simResult is one campaign's measurements.
type simResult struct {
	metrics   map[string]float64
	samples   map[string]int
	extra     map[string]float64
	attempted int
	failed    int
	problems  []string
	sha       string
	report    harness.Report
	cpu       int64           // process CPU over Scenario.Run
	rt        [2]runtimeProbe // runtime counters before and after it
}

// simSetup is the timed set-up of a simulated workload: build the scenario
// value and materialize every node's subscription, which also yields the
// subscription-count fingerprint the workload is pinned by.
func simSetup(w *workloadSpec) (harness.Scenario, int, error) {
	sc, err := harness.Lookup(w.Scenario)
	if err != nil {
		return sc, 0, err
	}
	space, err := addr.Regular(sc.Fleet.Arity, sc.Fleet.Depth)
	if err != nil {
		return sc, 0, err
	}
	subs := sc.Nodes // the default scheme: one class criterion per node
	if sc.SubscriptionFor != nil {
		subs = 0
		for i := 0; i < sc.Nodes; i++ {
			subs += sc.SubscriptionFor(space.AddressAt(i), i).Size()
		}
	}
	return sc, subs, nil
}

// runSim times one harness campaign. The campaign seed is pinned by the
// workload (see workloads.json and the README): a campaign publishes a
// handful of events whose audiences swing several-fold with the seed's topic
// draws, so per-delivery figures would measure the draw, not the code.
func runSim(cfg *config, w *workloadSpec, tr *tracer) (*simResult, error) {
	res := &simResult{metrics: map[string]float64{}, samples: map[string]int{}, extra: map[string]float64{}}
	problem := func(format string, args ...any) {
		res.problems = append(res.problems, fmt.Sprintf(format, args...))
	}

	var sc harness.Scenario
	var subs int
	setups := make([]float64, 0, w.SetupRepeats)
	for i := 0; i < w.SetupRepeats; i++ {
		t0 := time.Now()
		var err error
		if sc, subs, err = simSetup(w); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.metrics["setup_s"] = median(setups)
	res.samples["setup_s"] = len(setups)
	res.sha = fmt.Sprintf("%s/seed%d/nodes%d/subs%d/ops%d", sc.Name, w.CampaignSeed, sc.Nodes, subs, len(sc.Ops))

	res.rt[0] = readRuntime()
	sp := -1
	if tr != nil {
		sp = tr.begin(spanRun, -1)
	}
	t0, c0 := nowNs(), cpuNs()
	out, err := sc.Run(w.CampaignSeed)
	t1, c1 := nowNs(), cpuNs()
	res.rt[1] = readRuntime()
	if tr != nil {
		tr.end(sp, t1, 1)
	}
	if err != nil {
		return nil, err
	}
	rep := out.Report
	res.report, res.cpu = rep, c1-c0
	wall := float64(t1-t0) / 1e9

	// Publish→deliver latency from the delivery trace, in virtual time.
	pubAt := make(map[string]int64, len(rep.Events))
	for _, e := range rep.Events {
		pubAt[e.ID] = e.PublishedAt
		res.attempted += e.Eligible
		res.failed += e.Eligible - e.Delivered
	}
	var lats []float64
	for _, line := range bytes.Split(out.Trace, []byte{'\n'}) {
		f := bytes.Fields(line)
		if len(f) != 3 {
			continue
		}
		at, err := strconv.ParseInt(string(f[0]), 10, 64)
		pub, ok := pubAt[string(f[2])]
		if err != nil || !ok {
			problem("trace line %q names an event that was never published", line)
			continue
		}
		lats = append(lats, float64(at-pub)/1e6)
	}
	sort.Float64s(lats)
	for node, ids := range out.Delivered {
		seen := make(map[event.ID]bool, len(ids))
		for _, id := range ids {
			if seen[id] {
				problem("node %s delivered %s twice", node, id)
			}
			seen[id] = true
		}
	}

	if rep.Delivered == 0 || rep.VirtualMillis == 0 || res.attempted == 0 {
		return nil, fmt.Errorf("campaign %s delivered nothing", sc.Name)
	}
	// A delivery's latency is virtual; the wall time the simulator needs to
	// carry it is that latency stretched by the campaign's wall/virtual
	// ratio. The product moves when dissemination takes more rounds or when
	// the simulator slows — and, unlike the bare virtual figure, it is a
	// measurement, not a replay constant.
	slowdown := wall * 1e3 / float64(rep.VirtualMillis)
	res.extra["sim.virtual_deliver_p50_ms"] = percentile(lats, 0.50)
	res.extra["sim.virtual_deliver_p99_ms"] = percentile(lats, 0.99)
	res.extra["sim.slowdown"] = slowdown
	sum := 0.0
	for _, v := range lats {
		sum += v
	}
	res.extra["sim.virtual_deliver_mean_ms"] = sum / float64(len(lats))
	res.metrics["deliver_mean_ms"] = sum / float64(len(lats)) * slowdown
	res.metrics["deliver_p99_ms"] = percentile(lats, 0.99) * slowdown
	res.samples["deliver_mean_ms"], res.samples["deliver_p99_ms"] = len(lats), len(lats)
	res.metrics["wall_s"] = wall
	res.metrics["capacity_eps"] = float64(rep.Published) / wall
	res.metrics["cpu_us_per_delivery"] = float64(res.cpu) / 1e3 / float64(rep.Delivered)
	res.metrics["delivery_ratio"] = rep.MeanReliability
	res.metrics["msgs_per_delivery"] = float64(rep.Envelopes) / float64(rep.Delivered)
	res.metrics["heap_mb_per_node"] = rep.MBPerNode
	res.samples["delivery_ratio"] = res.attempted
	res.samples["msgs_per_delivery"] = rep.Delivered
	res.samples["cpu_us_per_delivery"] = rep.Delivered

	p := w.Pinned
	if p.Nodes != 0 && (rep.Nodes != p.Nodes || rep.Published != p.Published || rep.VirtualMillis != p.VirtualMs || subs != p.Subscriptions) {
		problem("campaign drifted from its pinned fingerprint: nodes %d (want %d), published %d (want %d), virtual_ms %d (want %d), subscriptions %d (want %d)",
			rep.Nodes, p.Nodes, rep.Published, p.Published, rep.VirtualMillis, p.VirtualMs, subs, p.Subscriptions)
	}
	if rep.MeanReliability < w.MinDeliveryRatio {
		problem("delivery_ratio %.4f below the workload's floor %.4f", rep.MeanReliability, w.MinDeliveryRatio)
	}
	if rep.DeliveriesDropped != 0 {
		problem("%d deliveries dropped by lagging consumers", rep.DeliveriesDropped)
	}
	return res, nil
}
