// Package baseline implements the three dissemination alternatives the
// paper's introduction contrasts pmcast against:
//
//  1. Flood gossip — a gossip *broadcast* (pbcast/lpbcast style): events
//     reach everybody and are filtered upon reception. Reliable but every
//     uninterested process pays the full reception cost.
//  2. Genuine multicast gossip — interests are checked *before* gossiping and
//     only interested processes participate. With partial membership views,
//     interested processes get isolated when no view neighbor shares the
//     interest ("a crucial intermediate process might not be interested").
//  3. Deterministic tree multicast — Astrolabe-style best-effort forwarding
//     down the delegate tree: cheap and exact in stable phases, fragile
//     under loss and crashes (one lost edge severs a subtree).
//
// All three run the same single-event, Bernoulli-audience, ε/τ environment
// as internal/sim and report a sim.Result, so results are directly
// comparable and fold by the same rule (sim.Aggregate).
package baseline

import (
	"errors"
	"fmt"
	"math/rand"

	"pmcast/internal/analysis"
	"pmcast/internal/sim"
)

// ErrBadParams reports invalid baseline parameters.
var ErrBadParams = errors.New("baseline: invalid parameters")

// FloodParams configures the gossip-broadcast baseline.
type FloodParams struct {
	// N is the flat group size.
	N int
	// F is the gossip fanout.
	F int
	// C is Pittel's constant for the round budget T(N, F).
	C float64
	// Eps, Tau: message loss and crash probability.
	Eps, Tau float64
}

func (p FloodParams) validate() error {
	if p.N < 1 || p.F < 1 {
		return fmt.Errorf("%w: n=%d F=%d", ErrBadParams, p.N, p.F)
	}
	if p.Eps < 0 || p.Eps >= 1 || p.Tau < 0 || p.Tau >= 1 {
		return fmt.Errorf("%w: ε=%g τ=%g", ErrBadParams, p.Eps, p.Tau)
	}
	return nil
}

// RunFlood simulates one gossip broadcast with filtering on reception: every
// process relays every received event for the Pittel-bounded number of
// rounds, regardless of anyone's interests.
func RunFlood(p FloodParams, pd float64, rng *rand.Rand) (sim.Result, error) {
	if err := p.validate(); err != nil {
		return sim.Result{}, err
	}
	if pd < 0 || pd > 1 {
		return sim.Result{}, fmt.Errorf("%w: pd=%g", ErrBadParams, pd)
	}
	interested, crashed := drawPopulation(p.N, pd, p.Tau, rng)
	budget := analysis.PittelLossAdjustedRounds(float64(p.N), float64(p.F), p.C, p.Eps, p.Tau)

	infected := make([]bool, p.N)
	origin := alivePick(rng, crashed)
	infected[origin] = true
	frontier := []int{origin}
	res := sim.Result{}
	for round := 0; round < budget && len(frontier) > 0; round++ {
		res.Rounds++
		var fresh []int
		for _, src := range carriers(infected, crashed) {
			for i := 0; i < p.F; i++ {
				dst := rng.Intn(p.N)
				if dst == src {
					continue
				}
				res.Messages++
				if p.Eps > 0 && rng.Float64() < p.Eps {
					continue
				}
				if crashed[dst] || infected[dst] {
					continue
				}
				infected[dst] = true
				fresh = append(fresh, dst)
			}
		}
		frontier = fresh
	}
	tally(&res, infected, interested, origin)
	return res, nil
}

// GenuineParams configures the genuine-multicast baseline: gossip restricted
// to interested processes, over uniform partial views.
type GenuineParams struct {
	// N is the flat group size.
	N int
	// ViewSize is how many random group members each process knows (with
	// their interests). The paper notes genuineness only works reliably
	// under the "rather unrealistic" assumption of global knowledge; shrink
	// the view to observe isolation.
	ViewSize int
	// F is the gossip fanout.
	F int
	// C is Pittel's constant for the round budget T(N·pd, F).
	C float64
	// Eps, Tau: message loss and crash probability.
	Eps, Tau float64
}

func (p GenuineParams) validate() error {
	if p.N < 1 || p.F < 1 || p.ViewSize < 1 {
		return fmt.Errorf("%w: n=%d F=%d view=%d", ErrBadParams, p.N, p.F, p.ViewSize)
	}
	if p.Eps < 0 || p.Eps >= 1 || p.Tau < 0 || p.Tau >= 1 {
		return fmt.Errorf("%w: ε=%g τ=%g", ErrBadParams, p.Eps, p.Tau)
	}
	return nil
}

// RunGenuine simulates one genuine multicast: each infected process gossips
// only to the interested members of its partial view. Uninterested processes
// never receive anything — at the price of isolating audience members whose
// interested neighbors are unreachable.
func RunGenuine(p GenuineParams, pd float64, rng *rand.Rand) (sim.Result, error) {
	if err := p.validate(); err != nil {
		return sim.Result{}, err
	}
	if pd < 0 || pd > 1 {
		return sim.Result{}, fmt.Errorf("%w: pd=%g", ErrBadParams, pd)
	}
	interested, crashed := drawPopulation(p.N, pd, p.Tau, rng)

	// Uniform partial views, drawn per process per run.
	viewSize := min(p.ViewSize, p.N-1)
	views := make([][]int, p.N)
	for i := range views {
		views[i] = sampleDistinct(rng, p.N, i, viewSize)
	}

	audience := 0
	for _, b := range interested {
		if b {
			audience++
		}
	}
	budget := analysis.PittelLossAdjustedRounds(float64(audience), float64(p.F), p.C, p.Eps, p.Tau)

	infected := make([]bool, p.N)
	origin := alivePick(rng, crashed)
	infected[origin] = true
	res := sim.Result{}
	for round := 0; round < budget; round++ {
		res.Rounds++
		spread := false
		for _, src := range carriers(infected, crashed) {
			// Candidates: interested members of src's view.
			var cands []int
			for _, m := range views[src] {
				if interested[m] {
					cands = append(cands, m)
				}
			}
			if len(cands) == 0 {
				continue
			}
			for i := 0; i < p.F; i++ {
				dst := cands[rng.Intn(len(cands))]
				res.Messages++
				if p.Eps > 0 && rng.Float64() < p.Eps {
					continue
				}
				if crashed[dst] || infected[dst] {
					continue
				}
				infected[dst] = true
				spread = true
			}
		}
		if !spread && round > 0 {
			break
		}
	}
	tally(&res, infected, interested, origin)
	return res, nil
}

// DetTreeParams configures the deterministic tree-multicast baseline over
// the same regular delegate tree as pmcast.
type DetTreeParams struct {
	// A, D, R: regular tree arity, depth, redundancy (delegates tried per
	// subgroup before giving up on it).
	A, D, R int
	// Eps, Tau: message loss and crash probability.
	Eps, Tau float64
}

func (p DetTreeParams) validate() error {
	if p.D < 1 || p.R < 1 || p.A < p.R {
		return fmt.Errorf("%w: a=%d d=%d R=%d", ErrBadParams, p.A, p.D, p.R)
	}
	if p.Eps < 0 || p.Eps >= 1 || p.Tau < 0 || p.Tau >= 1 {
		return fmt.Errorf("%w: ε=%g τ=%g", ErrBadParams, p.Eps, p.Tau)
	}
	return nil
}

// RunDeterministicTree simulates one deterministic best-effort multicast: the
// event descends the delegate tree, each interested subtree being handed to
// its first responsive delegate (up to R attempts, no acknowledgements, no
// gossip). In stable phases this is cheap and exact; a lost hand-off severs
// the whole subtree, which is the robustness gap pmcast closes (Section 6,
// Astrolabe comparison).
func RunDeterministicTree(p DetTreeParams, pd float64, rng *rand.Rand) (sim.Result, error) {
	if err := p.validate(); err != nil {
		return sim.Result{}, err
	}
	if pd < 0 || pd > 1 {
		return sim.Result{}, fmt.Errorf("%w: pd=%g", ErrBadParams, pd)
	}
	n := 1
	for i := 0; i < p.D; i++ {
		n *= p.A
	}
	interested, crashed := drawPopulation(n, pd, p.Tau, rng)

	// subtreeInterest[l][s] for prefix length l.
	levels := make([][]bool, p.D+1)
	levels[p.D] = interested
	for l := p.D - 1; l >= 0; l-- {
		size := 1
		for i := 0; i < l; i++ {
			size *= p.A
		}
		levels[l] = make([]bool, size)
		for s := range levels[l] {
			for c := 0; c < p.A; c++ {
				if levels[l+1][s*p.A+c] {
					levels[l][s] = true
					break
				}
			}
		}
	}
	strideAt := func(l int) int {
		out := 1
		for i := 0; i < p.D-l; i++ {
			out *= p.A
		}
		return out
	}

	res := sim.Result{Rounds: p.D}
	infected := make([]bool, n)
	origin := alivePick(rng, crashed)
	infected[origin] = true

	// Recursive descent: deliver to every interested subtree of prefix s at
	// level l, entered by a process already holding the event.
	var descend func(s, l int)
	descend = func(s, l int) {
		if l == p.D {
			return
		}
		for c := 0; c < p.A; c++ {
			child := s*p.A + c
			if !levels[l+1][child] {
				continue
			}
			// Try the child's delegates in election order; a subtree has at
			// most min(R, subtree size) delegates.
			base := child * strideAt(l+1)
			attempts := min(p.R, strideAt(l+1))
			for attempt := 0; attempt < attempts; attempt++ {
				dst := base + attempt
				res.Messages++
				if p.Eps > 0 && rng.Float64() < p.Eps {
					continue
				}
				if crashed[dst] {
					continue
				}
				if !infected[dst] {
					infected[dst] = true
				}
				descend(child, l+1)
				break
			}
		}
	}
	descend(0, 0)
	// The descent delivers to delegates; leaves of an interested leaf-group
	// are reached by its delegate fanning out locally.
	for g := 0; g < n/p.A; g++ {
		// Find an infected delegate of leaf group g.
		var carrier = -1
		for j := 0; j < p.R; j++ {
			if infected[g*p.A+j] && !crashed[g*p.A+j] {
				carrier = g*p.A + j
				break
			}
		}
		if carrier < 0 {
			continue
		}
		for c := 0; c < p.A; c++ {
			dst := g*p.A + c
			if dst == carrier || !interested[dst] {
				continue
			}
			res.Messages++
			if p.Eps > 0 && rng.Float64() < p.Eps {
				continue
			}
			if crashed[dst] || infected[dst] {
				continue
			}
			infected[dst] = true
		}
	}
	tally(&res, infected, interested, origin)
	return res, nil
}

// drawPopulation samples interests and crashes.
func drawPopulation(n int, pd, tau float64, rng *rand.Rand) (interested, crashed []bool) {
	interested = make([]bool, n)
	crashed = make([]bool, n)
	for i := 0; i < n; i++ {
		interested[i] = rng.Float64() < pd
		crashed[i] = tau > 0 && rng.Float64() < tau
	}
	return interested, crashed
}

// alivePick returns a uniformly random non-crashed index.
func alivePick(rng *rand.Rand, crashed []bool) int {
	for {
		i := rng.Intn(len(crashed))
		if !crashed[i] {
			return i
		}
	}
}

// carriers lists alive infected processes in index order (deterministic).
func carriers(infected, crashed []bool) []int {
	var out []int
	for i, b := range infected {
		if b && !crashed[i] {
			out = append(out, i)
		}
	}
	return out
}

// tally fills the publisher and audience counters of a result.
func tally(res *sim.Result, infected, interested []bool, origin int) {
	res.Publisher = origin
	for i := range infected {
		if interested[i] {
			res.Interested++
			if infected[i] {
				res.DeliveredInterested++
			}
		} else {
			res.Uninterested++
			if infected[i] && i != origin {
				res.InfectedUninterested++
			}
		}
	}
}

// sampleDistinct draws k distinct values from [0,n) \ {excl}.
func sampleDistinct(rng *rand.Rand, n, excl, k int) []int {
	out := make([]int, 0, k)
	seen := make(map[int]bool, k)
	for len(out) < k && len(out) < n-1 {
		v := rng.Intn(n)
		if v == excl || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}
