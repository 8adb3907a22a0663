// The adaptive-fanout ablation: loss-aware tuning against fixed fan-out on
// a bursty-link campaign. Three arms per seed — the base fixed fan-out, a
// fixed fan-out raised by the adaptive boost (the "just send more" straw
// man), and the adaptive configuration at base fan-out. The claim under
// test: adaptation buys the raised arm's reliability while spending extra
// sends only where the estimator measured loss, so its bytes/event lands at
// or below the raised fixed arm's.

package experiments

import (
	"fmt"

	"pmcast/internal/harness"
	"pmcast/internal/transport"
)

// AdaptiveCell is one (variant, seed) campaign of the ablation.
type AdaptiveCell struct {
	Variant string `json:"variant"`
	Seed    int64  `json:"seed"`
	// F is the configured fan-out; Adaptive whether the tuning loop ran.
	F        int  `json:"f"`
	Adaptive bool `json:"adaptive"`
	// Reliability and cost axes (see harness.Report).
	MeanReliability   float64 `json:"mean_reliability"`
	MinReliability    float64 `json:"min_reliability"`
	BytesPerEvent     float64 `json:"bytes_per_event"`
	EnvelopesPerEvent float64 `json:"envelopes_per_event"`
	// Estimator and tuning activity: what the adaptation measured and did.
	EstLossMean          float64 `json:"est_loss_mean"`
	EstLossPeers         int     `json:"est_loss_peers"`
	AdaptiveBoosts       int     `json:"adaptive_boosts"`
	AdaptiveExtraTargets int     `json:"adaptive_extra_targets"`
}

// AdaptiveOptions tunes the ablation.
type AdaptiveOptions struct {
	// Scenario names the base campaign (default noisy64 — the bursty-link
	// frontier64 variant; adaptation there responds to measured Gilbert–
	// Elliott loss, not to a uniform assumption).
	Scenario string
	// Seeds are the campaign seeds (default 1..4).
	Seeds []int64
	// BaseF is the base fan-out (0 = the scenario's own).
	BaseF int
	// RaisedF is the fixed comparison arm's fan-out (0 = BaseF + 2, the
	// default adaptive boost: the budget adaptation could spend per round).
	RaisedF int
}

func (o AdaptiveOptions) withDefaults() AdaptiveOptions {
	if o.Scenario == "" {
		o.Scenario = "noisy64"
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2, 3, 4}
	}
	return o
}

// AdaptiveCellAt runs one arm: the base scenario at fan-out f, with or
// without the adaptive tuning loop.
func AdaptiveCellAt(base harness.Scenario, variant string, seed int64, f int, adaptive bool) (AdaptiveCell, error) {
	sc := base
	sc.Fleet.F = f
	sc.Fleet.AdaptiveFanout = adaptive
	res, err := sc.Run(seed)
	if err != nil {
		return AdaptiveCell{}, fmt.Errorf("adaptive ablation %s %s seed=%d: %w",
			sc.Name, variant, seed, err)
	}
	rep := res.Report
	return AdaptiveCell{
		Variant:              variant,
		Seed:                 seed,
		F:                    f,
		Adaptive:             adaptive,
		MeanReliability:      rep.MeanReliability,
		MinReliability:       rep.MinReliability,
		BytesPerEvent:        rep.BytesPerEvent,
		EnvelopesPerEvent:    rep.EnvelopesPerEvent,
		EstLossMean:          rep.EstLossMean,
		EstLossPeers:         rep.EstLossPeers,
		AdaptiveBoosts:       rep.AdaptiveBoosts,
		AdaptiveExtraTargets: rep.AdaptiveExtraTargets,
	}, nil
}

// AdaptiveAblation runs the three arms over every seed, in arm-major order:
// fixed at BaseF, fixed at RaisedF, adaptive at BaseF.
func AdaptiveAblation(o AdaptiveOptions) ([]AdaptiveCell, error) {
	o = o.withDefaults()
	base, err := harness.Lookup(o.Scenario)
	if err != nil {
		return nil, err
	}
	baseF := o.BaseF
	if baseF <= 0 {
		baseF = base.Fleet.F
		if baseF <= 0 {
			baseF = 3 // the fleet default
		}
	}
	raisedF := o.RaisedF
	if raisedF <= 0 {
		raisedF = baseF + 2
	}
	arms := []struct {
		variant  string
		f        int
		adaptive bool
	}{
		{fmt.Sprintf("fixed_f%d", baseF), baseF, false},
		{fmt.Sprintf("fixed_f%d", raisedF), raisedF, false},
		{fmt.Sprintf("adaptive_f%d", baseF), baseF, true},
	}
	cells := make([]AdaptiveCell, 0, len(arms)*len(o.Seeds))
	for _, arm := range arms {
		for _, seed := range o.Seeds {
			c, err := AdaptiveCellAt(base, arm.variant, seed, arm.f, arm.adaptive)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// MeanOverSeeds averages the reliability and cost axes of one variant's
// cells (helper for tests and the bench summary).
func MeanOverSeeds(cells []AdaptiveCell, variant string) (rel, minRel, bytes float64, n int) {
	for _, c := range cells {
		if c.Variant != variant {
			continue
		}
		rel += c.MeanReliability
		minRel += c.MinReliability
		bytes += c.BytesPerEvent
		n++
	}
	if n > 0 {
		rel /= float64(n)
		minRel /= float64(n)
		bytes /= float64(n)
	}
	return rel, minRel, bytes, n
}

// FrontierPointLinked measures one frontier cell under a correlated-loss
// link model instead of Bernoulli loss: the PR 6 acceptance cells re-run on
// Gilbert–Elliott bursts. The point's Loss field records the chain's
// stationary loss rate, so linked and Bernoulli points plot on one axis.
func FrontierPointLinked(base harness.Scenario, seed int64, link transport.LinkModel, f, k, r int) (FrontierPoint, error) {
	sc := base
	sc.Loss = 0
	sc.Link = link
	sc.Fleet.F = f
	sc.Fleet.FECSources = k
	sc.Fleet.FECRepairs = r
	res, err := sc.Run(seed)
	if err != nil {
		return FrontierPoint{}, fmt.Errorf("frontier %s linked f=%d r=%d: %w",
			sc.Name, f, r, err)
	}
	rep := res.Report
	pBad := link.PGB / (link.PGB + link.PBG)
	return FrontierPoint{
		Scenario:            sc.Name,
		Seed:                seed,
		Loss:                pBad*link.BadLoss + (1-pBad)*link.GoodLoss,
		F:                   f,
		K:                   k,
		R:                   r,
		MeanReliability:     rep.MeanReliability,
		MinReliability:      rep.MinReliability,
		BytesPerEvent:       rep.BytesPerEvent,
		RepairBytesPerEvent: rep.RepairBytesPerEvent,
		EnvelopesPerEvent:   rep.EnvelopesPerEvent,
		RoundsToDeliveryP99: rep.RoundsToDeliveryP99,
		FECRecoveries:       rep.FECRecoveries,
	}, nil
}
