package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"
)

// workloads.json is the single home of every workload constant — fleet
// shapes, rates, windows, phase shares, the pinned sim_zipf1m fingerprint —
// so nothing is duplicated between data and code. (BENCHMARK.json admits
// only its fixed keys, so the data lives here, beside the program.)
//
//go:embed workloads.json
var workloadsJSON []byte

type config struct {
	Protocol struct {
		R int     `json:"r"`
		F int     `json:"f"`
		C float64 `json:"c"`
	} `json:"protocol"`
	DefaultSeconds   float64 `json:"default_seconds"` // BENCHMARK.json's run_seconds; a test holds them equal
	MaxProcs         int     `json:"max_procs"`
	PopulationSeed   int64   `json:"population_seed"`
	WarmupS          float64 `json:"warmup_s"`
	WarmupDrainMs    int     `json:"warmup_drain_ms"`
	WindowS          float64 `json:"window_s"`
	DeadlineMs       int     `json:"deadline_ms"`
	EligibleBeforeMs int     `json:"eligible_before_ms"`
	EligibleAfterMs  int     `json:"eligible_after_ms"`
	GenLateLimitMs   float64 `json:"gen_late_limit_ms"`
	FleetsPerRun     int     `json:"fleets_per_run"`
	DepthSampleMs    int     `json:"depth_sample_ms"`
	RowBudgetMs      int     `json:"row_budget_ms"`
	// CampaignRows names the registry campaigns the traced run times on the
	// serial (shards=1) harness loop, by the row each fills.
	CampaignRows   map[string]string `json:"campaign_rows"`
	SuspectAfterMs int               `json:"suspect_after_ms"`
	DeliveryBuffer int               `json:"delivery_buffer"`
	Smoke          struct {
		Arity            int     `json:"arity"`
		Depth            int     `json:"depth"`
		PhaseS           float64 `json:"phase_s"`
		WarmupS          float64 `json:"warmup_s"`
		WarmupDrainMs    int     `json:"warmup_drain_ms"`
		WindowS          float64 `json:"window_s"`
		SetupRepeats     int     `json:"setup_repeats"`
		DeadlineMs       int     `json:"deadline_ms"`
		EligibleBeforeMs int     `json:"eligible_before_ms"`
		FluxPerS         float64 `json:"flux_per_s"`
		RowBudgetMs      int     `json:"row_budget_ms"`
		Campaign         string  `json:"campaign"`
	} `json:"smoke"`
	Workloads map[string]*workloadSpec `json:"workloads"`
}

type workloadSpec struct {
	Name string `json:"-"`
	Kind string `json:"kind"` // "live" or "sim"

	// Live fleets.
	Fabric        string      `json:"fabric"` // "udp" or "mem"
	Arity         int         `json:"arity"`
	Depth         int         `json:"depth"`
	F             int         `json:"f"` // gossip fan-out; 0 takes the protocol's
	GossipMs      int         `json:"gossip_ms"`
	DecodeWorkers int         `json:"decode_workers"`
	EncodeWorkers int         `json:"encode_workers"`
	Loss          float64     `json:"loss"`
	Subscriptions string      `json:"subscriptions"` // "match_all" or "zipf"
	Zipf          zipfSpec    `json:"zipf"`
	FillerAttrs   int         `json:"filler_attrs"`
	FluxPerS      float64     `json:"flux_per_s"`
	Phases        []phaseSpec `json:"phases"`

	// Simulated campaigns.
	Scenario     string `json:"scenario"`
	CampaignSeed int64  `json:"campaign_seed"`
	Pinned       struct {
		Nodes         int   `json:"nodes"`
		Published     int   `json:"published"`
		VirtualMs     int64 `json:"virtual_ms"`
		Subscriptions int   `json:"subscriptions"`
	} `json:"pinned"`

	// SetupRepeats is how many set-ups setup_s is the median of: more where
	// one is cheap and noisy (16 sockets in 15 ms), fewer where one is dear.
	SetupRepeats     int     `json:"setup_repeats"`
	MinDeliveryRatio float64 `json:"min_delivery_ratio"`
}

type zipfSpec struct {
	Topics   int     `json:"topics"`
	Alpha    float64 `json:"alpha"`
	MeanSubs float64 `json:"mean_subs"`
	MaxSubs  int     `json:"max_subs"`
	Locality float64 `json:"locality"`
}

// phaseSpec is one timed phase of a live workload. Share is its fraction of
// the run's -seconds. A phase with RateEPS is an open loop at that rate, one
// with Window a closed loop with that many events outstanding, one with
// neither publishes nothing (idle).
type phaseSpec struct {
	Name    string  `json:"name"`
	Share   float64 `json:"share"`
	RateEPS float64 `json:"rate_eps"`
	Window  int     `json:"window"`
	// TracedOnly phases feed per-layer rows alone; the untraced pass skips
	// them and spends its seconds on the phases that carry end-to-end metrics.
	TracedOnly bool `json:"traced_only"`
}

func (c *config) nodes(w *workloadSpec) int {
	n := 1
	for i := 0; i < w.Depth; i++ {
		n *= w.Arity
	}
	return n
}

// nominalRate is the rate of the workload's open-loop phase, which the
// warm-up runs at too.
func (w *workloadSpec) nominalRate() float64 {
	rate := 0.0
	for _, p := range w.Phases {
		if p.RateEPS > 0 {
			rate = p.RateEPS
		}
	}
	return rate
}

func (c *config) deadline() time.Duration {
	return time.Duration(c.DeadlineMs) * time.Millisecond
}

func (c *config) eligibleBefore() time.Duration {
	return time.Duration(c.EligibleBeforeMs) * time.Millisecond
}

func (c *config) eligibleAfter() time.Duration {
	return time.Duration(c.EligibleAfterMs) * time.Millisecond
}

// fanout is the gossip fan-out F the workload's nodes run with.
func (c *config) fanout(w *workloadSpec) int {
	if w.F > 0 {
		return w.F
	}
	return c.Protocol.F
}

// workloadOrder is the order workloads run in when none is named.
var workloadOrder = []string{"udp_broadcast", "mem_zipf_stream", "mem_zipf_flux", "sim_zipf1m"}

func loadConfig() (*config, error) {
	var c config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for _, name := range workloadOrder {
		w, ok := c.Workloads[name]
		if !ok {
			return nil, fmt.Errorf("workloads.json: workload %q missing", name)
		}
		w.Name = name
		if w.Kind == "live" {
			var share float64
			for _, p := range w.Phases {
				if !p.TracedOnly {
					share += p.Share
				}
			}
			if share < 0.999 || share > 1.001 {
				return nil, fmt.Errorf("workloads.json: %s phase shares sum to %v, want 1", name, share)
			}
			if n := c.nodes(w); n > 64 {
				// Eligibility is one uint64 mask per event.
				return nil, fmt.Errorf("workloads.json: %s has %d nodes, at most 64 supported", name, n)
			}
		}
	}
	if c.EligibleAfterMs > c.DeadlineMs {
		return nil, fmt.Errorf("workloads.json: eligible_after_ms %d beyond deadline_ms %d", c.EligibleAfterMs, c.DeadlineMs)
	}
	if len(c.Workloads) != len(workloadOrder) {
		return nil, fmt.Errorf("workloads.json: %d workloads, want %d", len(c.Workloads), len(workloadOrder))
	}
	return &c, nil
}

// applySmoke shrinks every workload to a seconds-long shape for tests: tiny
// fleets, one second per phase, the smoke campaign instead of zipf1m.
func (c *config) applySmoke() {
	c.WarmupS = c.Smoke.WarmupS
	c.WindowS = c.Smoke.WindowS
	c.FleetsPerRun = 1
	c.DeadlineMs, c.EligibleBeforeMs = c.Smoke.DeadlineMs, c.Smoke.EligibleBeforeMs
	c.EligibleAfterMs = min(c.EligibleAfterMs, c.DeadlineMs)
	c.RowBudgetMs = c.Smoke.RowBudgetMs
	for row := range c.CampaignRows {
		c.CampaignRows[row] = c.Smoke.Campaign
	}
	for _, w := range c.Workloads {
		w.SetupRepeats = c.Smoke.SetupRepeats
		if w.Kind == "live" {
			w.Arity, w.Depth = c.Smoke.Arity, c.Smoke.Depth
			for i := range w.Phases {
				if w.Phases[i].RateEPS > 0 {
					w.Phases[i].RateEPS = 200
				}
				if w.Phases[i].Window > 0 {
					w.Phases[i].Window = 32
				}
			}
			if w.FluxPerS > 0 {
				w.FluxPerS = c.Smoke.FluxPerS
			}
			if w.Zipf.Topics > 0 {
				w.Zipf.Topics = 16
				w.Zipf.MeanSubs = 6
				w.Zipf.MaxSubs = 12
			}
		} else {
			w.Scenario = c.Smoke.Campaign
			w.Pinned.Nodes, w.Pinned.Published, w.Pinned.VirtualMs, w.Pinned.Subscriptions = 0, 0, 0, 0
			w.MinDeliveryRatio = 0.9
		}
	}
}
