// The coded-gossip frontier: reliability versus wire cost across loss
// rates, fan-outs and redundancy levels, measured on the deterministic
// scenario harness. Each point is one seeded soak campaign; together they
// trace the Pareto frontier the coding layer is built for — under heavy
// loss, a coded fleet at reduced fan-out reaches the reliability of an
// uncoded fleet at high fan-out while spending fewer bytes per event.

package experiments

import (
	"fmt"

	"pmcast/internal/harness"
	"pmcast/internal/transport"
)

// FrontierPoint is one (loss, fan-out, redundancy) cell of the frontier.
type FrontierPoint struct {
	// Scenario and Seed identify the campaign; every field below is
	// deterministic for the pair.
	Scenario string  `json:"scenario"`
	Seed     int64   `json:"seed"`
	Loss     float64 `json:"loss"`
	// F is the gossip fan-out; K and R the coding parameters (R = 0 is the
	// uncoded baseline).
	F int `json:"f"`
	K int `json:"k"`
	R int `json:"r"`
	// Reliability axes.
	MeanReliability float64 `json:"mean_reliability"`
	MinReliability  float64 `json:"min_reliability"`
	// Cost axes. BytesPerEvent includes the repair overhead
	// (RepairBytesPerEvent breaks it out); RoundsToDeliveryP99 is the
	// latency tail in gossip rounds.
	BytesPerEvent       float64 `json:"bytes_per_event"`
	RepairBytesPerEvent float64 `json:"repair_bytes_per_event"`
	EnvelopesPerEvent   float64 `json:"envelopes_per_event"`
	RoundsToDeliveryP99 float64 `json:"rounds_to_delivery_p99"`
	// FECRecoveries is how many gossips the decoder reconstructed instead
	// of waiting out a retransmission.
	FECRecoveries int64 `json:"fec_recoveries"`
}

// FrontierPointAt measures one cell: the base scenario re-parameterized to
// the given ambient Bernoulli loss, link model, fan-out and coding
// configuration. A zero link model runs Bernoulli loss alone; an enabled
// Gilbert–Elliott chain on every directed link adds correlated loss. The
// point's Loss field records the combined loss rate — the ambient loss plus,
// of what survives it, the chain's stationary loss — so linked and
// Bernoulli points plot on one axis.
func FrontierPointAt(base harness.Scenario, seed int64, loss float64, link transport.LinkModel, f, k, r int) (FrontierPoint, error) {
	sc := base
	sc.Loss = loss
	sc.Link = link
	sc.Fleet.F = f
	sc.Fleet.FECSources = k
	sc.Fleet.FECRepairs = r
	res, err := sc.Run(seed)
	if err != nil {
		return FrontierPoint{}, fmt.Errorf("frontier %s loss=%.2f linked=%t f=%d r=%d: %w",
			sc.Name, loss, link.PGB > 0, f, r, err)
	}
	if link.PGB > 0 {
		pBad := link.PGB / (link.PGB + link.PBG)
		loss += (1 - loss) * (pBad*link.BadLoss + (1-pBad)*link.GoodLoss)
	}
	rep := res.Report
	return FrontierPoint{
		Scenario:            sc.Name,
		Seed:                seed,
		Loss:                loss,
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
