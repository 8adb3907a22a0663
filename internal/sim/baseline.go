package sim

import (
	"fmt"
	"math/rand"

	"pmcast/internal/analysis"
)

// The three dissemination alternatives the paper's introduction contrasts
// pmcast against:
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
// Each draws its single-event, Bernoulli-audience, ε/τ environment with the
// simulator's runState and reports a Result, so results are directly
// comparable and fold by the same rule (Aggregate).

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

// RunFlood simulates one gossip broadcast with filtering on reception: every
// process relays every received event for the Pittel-bounded number of
// rounds, regardless of anyone's interests.
func RunFlood(p FloodParams, pd float64, rng *rand.Rand) (Result, error) {
	if p.N < 1 || p.F < 1 {
		return Result{}, fmt.Errorf("%w: n=%d F=%d", ErrBadShape, p.N, p.F)
	}
	rs, err := draw(p.N, 1, pd, p.Eps, p.Tau, rng)
	if err != nil {
		return Result{}, err
	}
	budget := analysis.PittelLossAdjustedRounds(float64(p.N), float64(p.F), p.C, p.Eps, p.Tau)

	infected := make([]bool, p.N)
	origin, err := rs.pick(rng)
	if err != nil {
		return Result{}, err
	}
	infected[origin] = true
	frontier := []int{origin}
	res := Result{}
	for round := 0; round < budget && len(frontier) > 0; round++ {
		res.Rounds++
		var fresh []int
		for _, src := range carriers(infected, rs.crashed) {
			for i := 0; i < p.F; i++ {
				dst := rng.Intn(p.N)
				if dst == src {
					continue
				}
				res.Messages++
				if p.Eps > 0 && rng.Float64() < p.Eps {
					continue
				}
				if rs.crashed[dst] || infected[dst] {
					continue
				}
				infected[dst] = true
				fresh = append(fresh, dst)
			}
		}
		frontier = fresh
	}
	rs.tally(&res, origin, func(i int) bool { return infected[i] })
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

// RunGenuine simulates one genuine multicast: each infected process gossips
// only to the interested members of its partial view. Uninterested processes
// never receive anything — at the price of isolating audience members whose
// interested neighbors are unreachable.
func RunGenuine(p GenuineParams, pd float64, rng *rand.Rand) (Result, error) {
	if p.N < 1 || p.F < 1 || p.ViewSize < 1 {
		return Result{}, fmt.Errorf("%w: n=%d F=%d view=%d", ErrBadShape, p.N, p.F, p.ViewSize)
	}
	rs, err := draw(p.N, 1, pd, p.Eps, p.Tau, rng)
	if err != nil {
		return Result{}, err
	}
	// The publisher is picked right after the draw, as in every other arm,
	// so arms fed one seed share it.
	origin, err := rs.pick(rng)
	if err != nil {
		return Result{}, err
	}

	// Uniform partial views, drawn per process per run.
	viewSize := min(p.ViewSize, p.N-1)
	views := make([][]int, p.N)
	for i := range views {
		views[i] = sampleDistinct(rng, p.N, i, viewSize)
	}

	audience := 0
	for _, b := range rs.interested {
		if b {
			audience++
		}
	}
	budget := analysis.PittelLossAdjustedRounds(float64(audience), float64(p.F), p.C, p.Eps, p.Tau)

	infected := make([]bool, p.N)
	infected[origin] = true
	res := Result{}
	for round := 0; round < budget; round++ {
		res.Rounds++
		spread := false
		for _, src := range carriers(infected, rs.crashed) {
			// Candidates: interested members of src's view.
			var cands []int
			for _, m := range views[src] {
				if rs.interested[m] {
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
				if rs.crashed[dst] || infected[dst] {
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
	rs.tally(&res, origin, func(i int) bool { return infected[i] })
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

// RunDeterministicTree simulates one deterministic best-effort multicast: the
// event descends the delegate tree, each interested subtree being handed to
// its first responsive delegate (up to R attempts, no acknowledgements, no
// gossip). In stable phases this is cheap and exact; a lost hand-off severs
// the whole subtree, which is the robustness gap pmcast closes (Section 6,
// Astrolabe comparison).
func RunDeterministicTree(p DetTreeParams, pd float64, rng *rand.Rand) (Result, error) {
	if err := checkTree(p.A, p.D, p.R); err != nil {
		return Result{}, err
	}
	rs, err := draw(p.A, p.D, pd, p.Eps, p.Tau, rng)
	if err != nil {
		return Result{}, err
	}
	n := len(rs.interested)
	res := Result{Rounds: p.D}
	infected := make([]bool, n)
	origin, err := rs.pick(rng)
	if err != nil {
		return Result{}, err
	}
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
			if !rs.subInterested[l+1][child] {
				continue
			}
			// Try the child's delegates in election order; a subtree has at
			// most min(R, subtree size) delegates.
			base := child * rs.strides[l+1]
			attempts := min(p.R, rs.strides[l+1])
			for attempt := 0; attempt < attempts; attempt++ {
				dst := base + attempt
				res.Messages++
				if p.Eps > 0 && rng.Float64() < p.Eps {
					continue
				}
				if rs.crashed[dst] {
					continue
				}
				infected[dst] = true
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
			if infected[g*p.A+j] && !rs.crashed[g*p.A+j] {
				carrier = g*p.A + j
				break
			}
		}
		if carrier < 0 {
			continue
		}
		for c := 0; c < p.A; c++ {
			dst := g*p.A + c
			if dst == carrier || !rs.interested[dst] {
				continue
			}
			res.Messages++
			if p.Eps > 0 && rng.Float64() < p.Eps {
				continue
			}
			if rs.crashed[dst] || infected[dst] {
				continue
			}
			infected[dst] = true
		}
	}
	rs.tally(&res, origin, func(i int) bool { return infected[i] })
	return res, nil
}

// draw checks a baseline's rates and draws its population of a^d processes
// the way Simulator.Run does; the caller then picks the publisher.
func draw(a, d int, pd, eps, tau float64, rng *rand.Rand) (*runState, error) {
	if err := checkRates(pd, eps, tau); err != nil {
		return nil, err
	}
	rs := newRunState(a, d)
	rs.redraw(pd, tau, rng)
	return rs, nil
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
