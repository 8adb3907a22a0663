package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"time"

	"pmcast/internal/interest"
	"pmcast/internal/transport"
)

// phaseDurations splits a run's seconds over the workload's phases.
func phaseDurations(w *workloadSpec, seconds float64) []float64 {
	out := make([]float64, len(w.Phases))
	for i, p := range w.Phases {
		out[i] = p.Share * seconds
	}
	return out
}

// livePass is one full pass of a live workload. It hosts the workload on
// fleets_per_run fleets in turn — each generated, set up (timed), warmed up,
// run for its share of the seconds and torn down — and merges what they
// measured; further throwaway set-ups bring the set-up samples up to
// setup_repeats. tr is nil on an untraced pass. layersOnly passes serve the
// traced run: they skip the closed loop, whose capacity figure no layer row
// needs.
func livePass(cfg *config, w *workloadSpec, seed int64, seconds float64, tr *tracer, layersOnly bool) (*liveResult, *liveRun, error) {
	wallStart := nowNs()
	var wrap func(transport.Transport) transport.Transport
	if tr != nil {
		wrap = tr.wrap
	}
	fleets := cfg.FleetsPerRun
	phaseDur := phaseDurations(w, seconds/float64(fleets))
	span := cfg.WarmupS + seconds/float64(fleets) + float64(len(w.Phases)+1)*cfg.deadline().Seconds()

	var setups []float64
	var waited int64 // drains and teardowns: waiting on deadlines, not work
	build := func(subs []interest.Subscription, fleetSeed int64) (*fleet, error) {
		if tr != nil {
			tr.nextFleet()
		}
		t0 := time.Now()
		f, err := buildFleet(cfg, w, subs, fleetSeed, wrap)
		setups = append(setups, time.Since(t0).Seconds())
		return f, err
	}
	var segs []*segment
	var last *liveRun
	var subs []interest.Subscription
	shas := sha256.New()
	for j := 0; j < fleets; j++ {
		fleetSeed := seed*int64(fleets) + int64(j)
		in := generate(cfg, w, fleetSeed, phaseDur, span)
		subs = subs[:0]
		for _, s := range in.Subs {
			subs = append(subs, s.subscription())
		}
		f, err := build(subs, fleetSeed)
		if err != nil {
			return nil, nil, err
		}
		shas.Write([]byte(in.SHA))
		last = newLiveRun(cfg, w, in, f, tr, phaseDur)
		last.layersOnly = layersOnly
		segs = append(segs, last.run(phaseDur))
		waited += last.waited
	}
	for len(setups) < w.SetupRepeats {
		f, err := build(subs, seed) // a set-up sample only
		if err != nil {
			return nil, nil, err
		}
		t0 := nowNs()
		f.stop()
		waited += nowNs() - t0
	}
	res := mergeSegments(cfg, w, segs, hex.EncodeToString(shas.Sum(nil))[:16])
	res.metrics["setup_s"], res.samples["setup_s"] = median(setups), len(setups)
	// Generation, set-up, warm-up and the phases' schedules: the part of a
	// pass whose length the program under test decides.
	res.metrics["wall_s"] = float64(nowNs()-wallStart-waited) / 1e9
	return res, last, nil
}

// eventCapacity bounds how many events a pass can publish — the size of the
// event table and of the tracer's publish-span index.
func eventCapacity(cfg *config, w *workloadSpec, phaseDur []float64) int {
	capacity := int(w.nominalRate()*cfg.WarmupS) + 1024
	for pi, p := range w.Phases {
		if p.Window > 0 {
			capacity += int(phaseDur[pi]*40000) + p.Window // far above any closed-loop rate seen
		} else {
			capacity += int(p.RateEPS * phaseDur[pi])
		}
	}
	return capacity
}

// runWorkload runs one workload as the options ask and returns its record.
func runWorkload(cfg *config, w *workloadSpec, o options) (*runRecord, error) {
	seconds := o.seconds
	if o.smoke && w.Kind == "live" {
		seconds = 0
		for _, p := range w.Phases {
			if !p.TracedOnly {
				seconds += cfg.Smoke.PhaseS
			}
		}
	}
	rec := &runRecord{Workload: w.Name, Seed: o.seed, Trace: o.trace, Valid: true}
	var vals, extra map[string]float64
	var samples map[string]int
	var problems []string
	var traceSHA string // a campaign's delivery-trace hash: equal for equal outputs
	defs := endToEnd
	if o.trace != 0 {
		defs = perLayer
	}

	switch {
	case w.Kind == "sim" && o.trace == 0:
		res, err := runSim(cfg, w, nil)
		if err != nil {
			return nil, err
		}
		vals, samples, extra, problems = res.metrics, res.samples, res.extra, res.problems
		rec.Attempted, rec.Failed, rec.SHA, traceSHA = res.attempted, res.failed, res.sha, res.report.TraceSHA256
	case w.Kind == "sim":
		tr := newTracer(0, transportTarget(w))
		res, err := runSim(cfg, w, tr)
		if err != nil {
			return nil, err
		}
		vals = simLayers(cfg, w, res)
		samples, extra, problems = res.samples, res.metrics, res.problems
		rec.Attempted, rec.Failed, rec.SHA, traceSHA = res.attempted, res.failed, res.sha, res.report.TraceSHA256
		if err := tr.write(filepath.Join(o.traceDir, "trace-"+w.Name+".jsonl")); err != nil {
			return nil, err
		}
	case o.trace == 0:
		res, _, err := livePass(cfg, w, o.seed, seconds, nil, false)
		if err != nil {
			return nil, err
		}
		vals, samples, extra, problems = res.metrics, res.samples, res.extra, res.problems
		rec.Attempted, rec.Failed, rec.SHA, rec.Valid = res.attempted, res.failed, res.sha, res.valid
	default:
		// The traced run: an untraced pass for the baseline, then the same
		// inputs again under the tracer — both without the closed loop, so
		// the two nominal phases are as long as an untraced run's — then the
		// replay of what the tracer captured through each layer's public
		// functions.
		base, _, err := livePass(cfg, w, o.seed, seconds, nil, true)
		if err != nil {
			return nil, err
		}
		phaseDur := phaseDurations(w, seconds/float64(cfg.FleetsPerRun))
		tr := newTracer(eventCapacity(cfg, w, phaseDur), transportTarget(w))
		res, run, err := livePass(cfg, w, o.seed, seconds, tr, true)
		if err != nil {
			return nil, err
		}
		vals = liveLayers(cfg, w, run, base, res, tr)
		samples, extra, problems = res.samples, res.metrics, append(base.problems, res.problems...)
		for k, v := range res.extra {
			if _, defined := vals[k]; !defined {
				extra[k] = v
			}
		}
		rec.Attempted, rec.Failed, rec.SHA, rec.Valid = res.attempted, res.failed, res.sha, res.valid && base.valid
		if err := tr.write(filepath.Join(o.traceDir, "trace-"+w.Name+".jsonl")); err != nil {
			return nil, err
		}
	}

	fmt.Fprintf(o.report, "# workload=%s workload_sha=%s valid=%v\n", w.Name, rec.SHA, rec.Valid)
	if traceSHA != "" {
		fmt.Fprintf(o.report, "# trace_sha256=%s\n", traceSHA)
	}
	printTable(o.report, w.Name, defs, vals, samples, extra)
	fmt.Fprintf(o.report, "%-18s %-44s %14d\n%-18s %-44s %14d\n", w.Name, "attempted_ops", rec.Attempted, w.Name, "failed_ops", rec.Failed)
	if !rec.Valid {
		fmt.Fprintf(o.report, "# INVALID RUN: the generator fell more than %g ms (p99) behind its schedule\n", cfg.GenLateLimitMs)
	}
	for _, p := range problems {
		fmt.Fprintf(o.report, "# CHECK FAILED: %s\n", p)
	}
	metrics, err := assemble(defs, vals)
	if err != nil {
		return nil, err
	}
	rec.Metrics = metrics
	rec.Correct = len(problems) == 0
	if rec.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return rec, nil
}
