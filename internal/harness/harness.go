package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/clock"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/fec"
	"pmcast/internal/interest"
	"pmcast/internal/membership"
	"pmcast/internal/node"
	"pmcast/internal/transport"
	"pmcast/internal/tree"
)

// Report is the JSON summary of one scenario run. Every field except the
// wall-clock duration is deterministic for a (scenario, seed) pair.
type Report struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Nodes    int    `json:"nodes"`

	VirtualMillis int64 `json:"virtual_ms"`
	WallMillis    int64 `json:"wall_ms"`
	ClockEvents   int   `json:"clock_events"`

	// Shards is the worker count the event loop actually ran with: what the
	// scenario asked for, or 1 when its fabric has no lookahead (synchronous
	// hand-offs cannot be split across workers). One worker runs inline.
	// MBPerNode is live heap per node after the run, the memory-compaction
	// metric of fleet-scale campaigns. Like WallMillis, MBPerNode is not
	// part of the deterministic replay contract.
	Shards    int     `json:"shards"`
	MBPerNode float64 `json:"mb_per_node"`

	Published int `json:"published"`
	Delivered int `json:"delivered"`

	Crashes int `json:"crashes"`
	Rejoins int `json:"rejoins"`
	Joins   int `json:"joins"`
	Fluxes  int `json:"fluxes"`

	AliveAtEnd        int   `json:"alive_at_end"`
	MembershipMin     int   `json:"membership_min"`
	MembershipMax     int   `json:"membership_max"`
	MessagesDropped   int   `json:"messages_dropped"`
	DeliveriesDropped int64 `json:"deliveries_dropped"`

	// Throughput accounting (the soak workload class). Envelopes counts
	// sender-side transport sends fleet-wide (a batched round envelope is
	// one); WireBytes is their total encoded size, which every node sums as
	// it sends. EventsPerSec is deliveries per virtual second;
	// EnvelopesPerEvent and BytesPerEvent normalize fabric cost by events
	// published.
	Envelopes         int64   `json:"envelopes"`
	WireBytes         int64   `json:"wire_bytes"`
	EventsPerSec      float64 `json:"events_per_sec"`
	EnvelopesPerEvent float64 `json:"envelopes_per_event"`
	BytesPerEvent     float64 `json:"bytes_per_event"`

	// Matching-engine accounting, fleet-wide (crashed generations included).
	// MatchEvals counts matcher evaluations actually performed and
	// MatchComparisons the attribute comparisons inside them; MatchCacheHits
	// is how many susceptibility queries the per-event profile cache
	// answered without evaluating anything — the work the compiled engine
	// saved. MatchEvalsPerEvent normalizes by events published, and
	// MatchMicrosPerRound is profile-computation wall time per gossip round
	// ticked (the only non-deterministic field, like WallMillis).
	MatchEvals          uint64  `json:"match_evals"`
	MatchComparisons    uint64  `json:"match_comparisons"`
	MatchCacheHits      uint64  `json:"match_cache_hits"`
	MatchCacheMisses    uint64  `json:"match_cache_misses"`
	MatchEvalsPerEvent  float64 `json:"match_evals_per_event"`
	MatchMicrosPerRound float64 `json:"match_micros_per_round"`

	// Fold-layer accounting (the membership side of matching), fleet-wide:
	// summary regroupings the fleet's trees actually computed vs. served by
	// their shared stores, plus end-of-run occupancy and sweep evictions of
	// the stores' regroupings (fold_cache_*) and compiled languages
	// (compiler_*) — each shared store counted once by identity, over the
	// fleet's live trees (replaced generations' dead stores are not in these
	// gauges; their recompute/hit counters are banked into the totals).
	FoldRecomputes     uint64 `json:"fold_recompiles"`
	FoldCacheHits      uint64 `json:"fold_cache_hits"`
	FoldCacheEntries   int    `json:"fold_cache_entries"`
	FoldCacheEvictions uint64 `json:"fold_cache_evictions"`
	CompilerEntries    int    `json:"compiler_entries"`
	CompilerEvictions  uint64 `json:"compiler_evictions"`

	// SummaryFPRate is the regrouping false-positive rate over published
	// events: (reached − interested) / reached, where "reached" counts
	// members whose whole summary path matched the event (see
	// tree.Tree.MatchReach) and "interested" the members whose own
	// subscription did, both at publish time — the widened-summary
	// lossiness the disjunct caps trade for bounded summaries.
	SummaryFPRate float64 `json:"summary_false_positive_rate"`

	// ClassReliability breaks delivery and false-positive rates down by
	// popularity bucket (scenarios with ClassBucketOf only) — the
	// head-vs-tail view of skewed workloads.
	ClassReliability []ClassReport `json:"class_reliability,omitempty"`

	// Coding-layer accounting, fleet-wide (crashed generations included).
	// FECRepairBytes is the encoded size of every repair section emitted;
	// RepairBytesPerEvent normalizes it by events published — the redundancy
	// overhead a coded run pays. FECRecoveries counts gossips reconstructed
	// from repair symbols instead of waiting for retransmission;
	// FECRepairsReceived and FECExpired expose how much redundancy arrived
	// and how many partial generations timed out. All zero when coding is
	// off. RoundsToDeliveryP99 is the 99th percentile, over delivered
	// (event, node) pairs, of delivery latency measured in gossip rounds —
	// the tail a coded run is supposed to shorten under loss.
	FECRepairBytes      int64   `json:"fec_repair_bytes"`
	RepairBytesPerEvent float64 `json:"repair_bytes_per_event"`
	FECRecoveries       int64   `json:"fec_recoveries"`
	FECRepairsReceived  int64   `json:"fec_repairs_received"`
	FECExpired          int64   `json:"fec_expired"`
	RoundsToDeliveryP99 float64 `json:"rounds_to_delivery_p99"`

	// LinkModel records whether the fabric ran the Gilbert–Elliott/jitter
	// link model, so reports are self-describing.
	LinkModel bool `json:"link_model"`

	// MeanReliability and MinReliability summarize, over published events,
	// the fraction of eligible processes (interested, alive at publish time
	// and still alive at the end) that delivered the event.
	MeanReliability float64 `json:"mean_reliability"`
	MinReliability  float64 `json:"min_reliability"`

	TraceSHA256 string   `json:"trace_sha256"`
	TraceBytes  int      `json:"trace_bytes"`
	Ops         []string `json:"ops"`

	// Events breaks reliability down per published event, in publish order.
	Events []EventReport `json:"events"`
}

// EventReport is the per-event delivery outcome.
type EventReport struct {
	ID          string  `json:"id"`
	PublishedAt int64   `json:"published_at_ns"`
	Class       int64   `json:"class"`
	Eligible    int     `json:"eligible"`
	Delivered   int     `json:"delivered"`
	Reliability float64 `json:"reliability"`
	// Reached is the summary-path reach at publish time (see
	// Report.SummaryFPRate).
	Reached int `json:"reached,omitempty"`
}

// ClassReport aggregates per-event outcomes over one popularity bucket of a
// skewed workload (see Scenario.ClassBucketOf).
type ClassReport struct {
	Bucket int `json:"bucket"`
	Events int `json:"events"`
	// Audienced counts the bucket's events with a nonzero eligible
	// audience — the denominator of the reliability figures. Deep-tail
	// topics can draw zero subscribers; such events have no reliability
	// to report, and a bucket where Audienced is 0 carries zeros here
	// without meaning delivery failed.
	Audienced       int     `json:"audienced_events"`
	MeanReliability float64 `json:"mean_reliability"`
	MinReliability  float64 `json:"min_reliability"`
	SummaryFPRate   float64 `json:"summary_false_positive_rate"`
}

// Result is everything a run produced: the report, the raw delivery trace
// (the byte-identical replay contract) and the per-node delivered event IDs
// in delivery order.
type Result struct {
	Report    Report
	Trace     []byte
	Delivered map[string][]event.ID
}

// handle is one fleet slot: a node generation plus its engine-side state.
type handle struct {
	index int
	a     addr.Address
	key   string
	n     *node.Node
	sub   interest.Subscription
	alive bool
	gen   int
	// clk is the node's clock and endpoint clock; queued is set while the
	// node sits in its worker's dirty set (see shard.go).
	clk    *nodeClock
	queued bool
}

// run is the mutable state of one scenario execution.
type run struct {
	sc     Scenario
	seed   int64
	vc     *clock.Virtual
	start  time.Time
	fabric *transport.Network
	rng    *rand.Rand
	space  addr.Space
	// roster is the shared bootstrap roster of an oracle fleet: one immutable
	// record table every initial-generation node adopts copy-on-write instead
	// of applying (and storing) n full membership updates — the difference
	// between O(n²) and O(n) bootstrap memory at 64k nodes.
	roster *membership.Roster
	// eng is the event loop (shard.go). afterInstant, when set, is called by
	// a worker each time it closes an instant — a test hook.
	eng          *shardEngine
	afterInstant func(r *run, worker int, at time.Time)

	handles   []*handle // fixed index order — the engine's iteration order
	nextFresh int       // next unused address index for OpJoin

	// retired banks the counters of node generations replaced by rejoins;
	// finish adds the generations still on their handles.
	retired counters

	// shadow is the audience oracle: a membership tree mirroring the fleet's
	// churn and flux, queried (never gossiped through) at each publish.
	shadow *tree.Tree

	trace     bytes.Buffer
	delivered map[string][]event.ID
	pubOrder  []*published            // in publish order
	events    map[event.ID]*published // the same records, by ID
	latNanos  []int64                 // delivery latencies of traced (event, node) pairs

	report Report
}

// published is what the run knows about one event: the publish-time facts,
// fixed by exec, and the two sets that move afterwards.
type published struct {
	ev         event.Event
	at         int64 // virtual nanoseconds since the run's start
	class      int64
	interested int // processes eligible at publish time
	reached    int // summary-path reach at publish time
	// eligible holds the interested processes still expected to deliver: a
	// crash, or a flux away from the event, removes a process from it.
	eligible map[string]bool
	got      map[string]bool // processes that delivered
}

// Run executes the scenario under the given seed and returns its result.
// Identical (scenario, seed) pairs produce byte-identical traces.
func (s Scenario) Run(seed int64) (*Result, error) { return s.run(seed, nil) }

// run is Run with the afterInstant test hook.
func (s Scenario) run(seed int64, afterInstant func(*run, int, time.Time)) (*Result, error) {
	sc, err := s.withDefaults()
	if err != nil {
		return nil, err
	}
	space, err := addr.Regular(sc.Fleet.Arity, sc.Fleet.Depth)
	if err != nil {
		return nil, fmt.Errorf("harness: scenario %q: %w", sc.Name, err)
	}
	if sc.Nodes > space.Capacity() {
		return nil, fmt.Errorf("harness: scenario %q wants %d nodes but the space holds %d",
			sc.Name, sc.Nodes, space.Capacity())
	}
	// A campaign is a batch job of a few wall-clock seconds: n full
	// membership replicas plus n trees stay live for its whole duration,
	// and on small CPU counts the collector competes with the event loop
	// for the same cores. Collect whatever a previous campaign left behind,
	// then run without periodic collection, backstopped by a memory limit
	// so constrained machines degrade to collecting instead of thrashing.
	// The previous settings are restored on exit.
	runtime.GC()
	prevGC := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prevGC)
	limit := int64(4 << 30)
	if need := int64(sc.Nodes) * (256 << 10); need > limit {
		limit = need // 64k-node campaigns need headroom beyond the 4 GiB floor
	}
	if cur := debug.SetMemoryLimit(-1); cur < limit {
		limit = cur
	}
	prevLimit := debug.SetMemoryLimit(limit)
	defer debug.SetMemoryLimit(prevLimit)
	wallStart := time.Now()
	vc := clock.NewVirtual()
	fabric, err := transport.NewNetwork(transport.Config{
		Loss:     sc.Loss,
		MinDelay: sc.MinDelay,
		MaxDelay: sc.MaxDelay,
		Link:     sc.Link,
		QueueLen: sc.QueueLen,
		Seed:     seed,
		Clock:    vc,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: scenario %q: %w", sc.Name, err)
	}
	defer fabric.Close()

	r := &run{
		sc:           sc,
		seed:         seed,
		vc:           vc,
		start:        vc.Now(),
		fabric:       fabric,
		rng:          rand.New(rand.NewSource(seed)),
		space:        space,
		afterInstant: afterInstant,
		nextFresh:    sc.Nodes,
		delivered:    make(map[string][]event.ID),
		events:       make(map[event.ID]*published),
	}
	r.report.Scenario = sc.Name
	r.report.Seed = seed
	r.report.Nodes = sc.Nodes

	// A fabric with no lookahead hands messages over synchronously, which
	// cannot be split across workers: its one-instant window runs on one.
	workers := sc.Shards
	lookahead := sc.lookahead()
	if lookahead <= 0 {
		workers = 1
	}
	r.report.Shards = workers
	r.eng = newShardEngine(r, workers, lookahead)
	defer r.eng.stop()

	// Each node's subscription is drawn once: the roster line and the node
	// share the value, and with it its memoized identity. The hooks are pure
	// functions of (address, index), so the draw runs on every core.
	subs := make([]interest.Subscription, sc.Nodes)
	parallelFor(sc.Nodes, func(i int) {
		subs[i] = sc.subscriptionFor(space.AddressAt(i), i)
	})
	// An oracle fleet starts from "anti-entropy already ran": build that
	// state once as a shared immutable roster instead of handing every node
	// its own copy of every line.
	if sc.Bootstrap == BootstrapOracle {
		recs := make([]membership.Record, sc.Nodes)
		for i := range recs {
			recs[i] = membership.Record{Addr: space.AddressAt(i), Sub: subs[i], Stamp: 1, Alive: true}
		}
		r.roster, err = membership.NewRoster(recs)
		if err != nil {
			return nil, fmt.Errorf("harness: scenario %q: %w", sc.Name, err)
		}
	}

	// Spawn the initial fleet, and the audience oracle: one shadow tree over
	// the same membership, updated in lockstep with churn and flux ops. It
	// touches no transport and no engine RNG, so measuring moves no trace.
	members := make([]tree.Member, sc.Nodes)
	for i := range members {
		if _, err := r.spawn(i, subs[i]); err != nil {
			return nil, err
		}
		members[i] = tree.Member{Addr: space.AddressAt(i), Sub: subs[i]}
	}
	r.shadow, err = tree.Build(tree.Config{Space: space, R: sc.Fleet.R}, members)
	if err != nil {
		return nil, fmt.Errorf("harness: scenario %q: building the shadow tree: %w", sc.Name, err)
	}
	if err := r.bootstrap(); err != nil {
		return nil, err
	}
	// Close the bootstrap instant — an event-free segment pumps whatever the
	// joins handed over synchronously — before the ops take their places in
	// the clock's queue. Nothing is published yet, so this pump records no
	// delivery whose key an op at offset 0 could share.
	r.eng.runSegment(nil, time.Time{}, r.start)

	// Schedule the operation timeline (tag −1: ops run on the coordinator).
	for _, op := range sc.Ops {
		op := op
		if op.At < 0 || op.At > sc.Horizon {
			return nil, fmt.Errorf("harness: scenario %q: op %s at %v outside horizon %v",
				sc.Name, op.Kind, op.At, sc.Horizon)
		}
		vc.ScheduleTagged(r.start.Add(op.At), -1, func() { r.exec(op) })
	}

	r.loop(r.start.Add(sc.Horizon))
	r.finish(wallStart)
	res := &Result{
		Report:    r.report,
		Trace:     append([]byte(nil), r.trace.Bytes()...),
		Delivered: r.delivered,
	}
	return res, nil
}

// parallelFor calls f(i) for every i in [0, n) on GOMAXPROCS goroutines,
// handing out indices in small blocks so uneven calls balance, and returns
// once every call has.
func parallelFor(n int, f func(i int)) {
	const block = 64
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := min(runtime.GOMAXPROCS(0), (n+block-1)/block); g > 0; g-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(block)) - block
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+block, n); i++ {
					f(i)
				}
			}
		}()
	}
	wg.Wait()
}

// spawn creates (or re-creates) the node at fleet index i and starts its
// periodic-task chains on the virtual clock. The node's engine parallelism
// is left at 0 — the harness IS the scheduler: it drives ingress, protocol
// and egress synchronously through the step-mode API, so every stage runs
// on the engine goroutine in a deterministic order.
func (r *run) spawn(i int, sub interest.Subscription) (*handle, error) {
	a := r.space.AddressAt(i)
	var h *handle
	if i < len(r.handles) && r.handles[i] != nil {
		h = r.handles[i]
	} else {
		h = &handle{index: i, a: a, key: a.Key(),
			clk: &nodeClock{w: r.eng.workerOf(int32(i)), tag: int32(i)}}
		for len(r.handles) <= i {
			r.handles = append(r.handles, nil)
		}
		r.handles[i] = h
	}
	h.gen++
	if h.n != nil {
		// The crashed generation's counters would vanish with the handle's
		// node pointer; bank them before the rejoin replaces it.
		r.retired.add(h.n)
	}
	cfg := node.Config{
		Addr:               a,
		Space:              r.space,
		R:                  r.sc.Fleet.R,
		F:                  r.sc.Fleet.F,
		C:                  r.sc.Fleet.C,
		Subscription:       sub,
		GossipInterval:     r.sc.Fleet.GossipInterval,
		MembershipInterval: r.sc.Fleet.MembershipInterval,
		SuspectAfter:       r.sc.Fleet.SuspectAfter,
		DeliveryBuffer:     r.sc.Fleet.DeliveryBuffer,
		FECRepairs:         r.sc.Fleet.FECRepairs,
		FECSources:         r.sc.Fleet.FECSources,
		Seed:               mixSeed(r.seed, i, h.gen),
		// The node's notion of now and every schedule it causes go through
		// its worker's clock.
		Clock: h.clk,
	}
	if r.roster != nil && h.gen == 1 && i < r.sc.Nodes {
		// Initial-generation oracle nodes share the bootstrap roster
		// copy-on-write and receive their first fold from the donor clone in
		// bootstrap(); rejoined generations and fresh joiners start alone,
		// over a one-line roster of their own, which the join reply rebases.
		cfg.MembershipRoster = r.roster
		cfg.DeferViews = true
	}
	n, err := node.New(r.fabric, cfg)
	if err != nil {
		return nil, fmt.Errorf("harness: spawning node %d (%s): %w", i, a, err)
	}
	h.n = n
	h.sub = sub
	h.alive = true
	r.fabric.SetEndpointClock(a, h.clk)
	r.startTickers(h)
	return h, nil
}

// startTickers schedules the node's periodic tasks as self-rescheduling
// virtual-clock callbacks, bound to the node's generation so a crash ends
// them and a rejoin starts fresh chains.
func (r *run) startTickers(h *handle) {
	gen := h.gen
	chain := func(d time.Duration, task func(*node.Node)) {
		var fire func()
		fire = func() {
			if !h.alive || h.gen != gen {
				return
			}
			task(h.n)
			h.clk.AfterFunc(d, fire)
		}
		h.clk.AfterFunc(d, fire)
	}
	chain(r.sc.Fleet.GossipInterval, func(n *node.Node) { n.TickGossip() })
	chain(r.sc.Fleet.MembershipInterval, func(n *node.Node) { n.TickMembership() })
	chain(r.sc.Fleet.SuspectAfter/2, func(n *node.Node) { n.SweepFailures() })
}

// bootstrap converges the initial fleet per the scenario's bootstrap mode.
func (r *run) bootstrap() error {
	switch r.sc.Bootstrap {
	case BootstrapOracle:
		// Every initial node was constructed over the shared roster, so the
		// fleet already agrees on membership. Fold the roster once and clone
		// it into the rest of the fleet (identical rosters ⇒ identical folds,
		// checked by roster hash); clones run in parallel. Both are
		// node-local, deterministic
		// work a real fleet does on n machines at once — the engine's
		// single-threaded discipline only matters once protocol events
		// start flowing.
		donor := r.handles[0].n
		if err := donor.WarmViews(); err != nil {
			return fmt.Errorf("harness: warming views: %w", err)
		}
		errs := make([]error, len(r.handles)-1)
		parallelFor(len(r.handles)-1, func(i int) {
			errs[i] = r.handles[i+1].n.AdoptViewsFrom(donor)
		})
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("harness: adopting views: %w", err)
			}
		}
		return nil
	case BootstrapJoin:
		contact := r.handles[0].a
		for _, h := range r.handles[1:] {
			if err := h.n.Join(contact); err != nil {
				return fmt.Errorf("harness: bootstrap join of %s: %w", h.a, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("harness: unknown bootstrap mode %q", r.sc.Bootstrap)
	}
}

// exec runs one scheduled operation at its virtual instant.
func (r *run) exec(op Op) {
	at := r.vc.Now().Sub(r.start)
	logf := func(format string, args ...any) {
		r.report.Ops = append(r.report.Ops,
			fmt.Sprintf("t=%s %s", at, fmt.Sprintf(format, args...)))
	}
	switch op.Kind {
	case OpPublish:
		count := max(1, op.Count)
		for k := 0; k < count; k++ {
			h := r.pickPublisher(op.Node)
			if h == nil {
				logf("publish: no eligible publisher")
				return
			}
			class := op.Class
			if class < 0 {
				class = int64(r.rng.Intn(r.sc.Fleet.Classes))
			}
			var attrs map[string]event.Value
			if r.sc.EventFor != nil {
				attrs = r.sc.EventFor(class, r.rng)
			} else {
				attrs = map[string]event.Value{"b": event.Int(class)}
			}
			id, err := h.n.Publish(attrs)
			if err != nil {
				logf("publish from %s failed: %v", h.key, err)
				continue
			}
			r.report.Published++
			ev := event.New(id, attrs)
			elig := make(map[string]bool)
			for _, o := range r.handles {
				if o != nil && o.alive && o.sub.Matches(ev) {
					elig[o.key] = true
				}
			}
			pub := &published{
				ev:         ev,
				at:         at.Nanoseconds(),
				class:      class,
				interested: len(elig),
				reached:    r.shadow.MatchReach(ev),
				eligible:   elig,
				got:        make(map[string]bool),
			}
			r.pubOrder = append(r.pubOrder, pub)
			r.events[id] = pub
			// The publisher's self-delivery sits in its channel until its
			// worker pumps it when this instant closes.
			r.eng.touch(int32(h.index))
			logf("publish %s#%d class=%d from %s (%d eligible)",
				id.Origin, id.Seq, class, h.key, len(elig))
		}
	case OpCrash:
		victims := r.pickAlive(op.Count)
		for _, h := range victims {
			r.eng.coordDrain(h)
			h.alive = false
			h.n.Stop()
			// A crashed process delivers nothing further: it leaves every
			// event's eligible set (a rejoin is a new process and old
			// events' gossip has expired by then).
			for _, pub := range r.pubOrder {
				delete(pub.eligible, h.key)
			}
			_ = r.shadow.Remove(h.a)
			r.report.Crashes++
		}
		logf("crash %d nodes: %s", len(victims), keysOf(victims))
	case OpRejoin:
		var crashed []*handle
		for _, h := range r.handles {
			if h != nil && !h.alive {
				crashed = append(crashed, h)
			}
		}
		picked := r.pickFrom(crashed, op.Count)
		var revived []*handle
		for _, h := range picked {
			nh, err := r.admit(h.index, h.sub)
			if err != nil {
				logf("rejoin of %s failed: %v", h.key, err)
				continue
			}
			revived = append(revived, nh)
			r.report.Rejoins++
		}
		logf("rejoin %d nodes: %s", len(revived), keysOf(revived))
	case OpJoin:
		var joined []*handle
		for k := 0; k < op.Count && r.nextFresh < r.space.Capacity(); k++ {
			i := r.nextFresh
			r.nextFresh++
			nh, err := r.admit(i, r.sc.subscriptionFor(r.space.AddressAt(i), i))
			if err != nil {
				logf("join of index %d failed: %v", i, err)
				continue
			}
			joined = append(joined, nh)
			r.report.Joins++
		}
		logf("join %d fresh nodes: %s", len(joined), keysOf(joined))
	case OpIsolate:
		victims := r.pickAlive(op.Count)
		for _, v := range victims {
			for _, o := range r.handles {
				if o != nil && o != v {
					r.fabric.BlockBidirectional(v.a, o.a)
				}
			}
		}
		logf("isolate %d nodes: %s", len(victims), keysOf(victims))
	case OpHeal:
		r.fabric.Heal()
		logf("heal")
	case OpFlux:
		victims := r.pickAlive(op.Count)
		for _, h := range victims {
			class := op.Class
			if class < 0 {
				class = int64(r.rng.Intn(r.sc.Fleet.Classes))
			}
			var sub interest.Subscription
			if r.sc.FluxFor != nil {
				sub = r.sc.FluxFor(h.a, h.index, class)
			} else {
				sub = interest.NewSubscription().Where("b", interest.EqInt(class))
			}
			h.sub = sub
			h.n.Subscribe(sub)
			// A fluxed process abandoned the interest in-flight events were
			// published under: like a crash, it leaves the eligible set of
			// every event its new subscription no longer matches (it will
			// never deliver them). Events the new interest does match keep
			// their eligibility rules from publish time.
			for _, pub := range r.pubOrder {
				if pub.eligible[h.key] && !sub.Matches(pub.ev) {
					delete(pub.eligible, h.key)
				}
			}
			_ = r.shadow.UpdateSubscription(h.a, sub)
			r.report.Fluxes++
		}
		logf("flux %d nodes: %s", len(victims), keysOf(victims))
	}
}

// pickPublisher returns the requested publisher, or a deterministic random
// pick for −1 — in both cases only first-generation alive nodes qualify.
// Rejoined generations are excluded: their sequence numbers restart, so
// their event IDs would collide with the crashed generation's and
// subscribers' seen-sets would silently drop the "duplicates".
func (r *run) pickPublisher(idx int) *handle {
	if idx >= 0 {
		if idx < len(r.handles) && r.handles[idx] != nil &&
			r.handles[idx].alive && r.handles[idx].gen == 1 {
			return r.handles[idx]
		}
		return nil
	}
	var pool []*handle
	for _, h := range r.handles {
		if h != nil && h.alive && h.gen == 1 {
			pool = append(pool, h)
		}
	}
	if len(pool) == 0 {
		return nil
	}
	return pool[r.rng.Intn(len(pool))]
}

// pickAlive draws count distinct alive nodes, deterministically.
func (r *run) pickAlive(count int) []*handle {
	var pool []*handle
	for _, h := range r.handles {
		if h != nil && h.alive {
			pool = append(pool, h)
		}
	}
	return r.pickFrom(pool, count)
}

// pickFrom draws count distinct handles from the pool via a partial
// Fisher–Yates on the engine RNG, returning them in fleet-index order.
func (r *run) pickFrom(pool []*handle, count int) []*handle {
	if count > len(pool) {
		count = len(pool)
	}
	for i := 0; i < count; i++ {
		j := i + r.rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	picked := append([]*handle(nil), pool[:count]...)
	sort.Slice(picked, func(i, j int) bool { return picked[i].index < picked[j].index })
	return picked
}

// contact returns the lowest-index alive node other than h, for joins.
func (r *run) contact(h *handle) *handle {
	for _, o := range r.handles {
		if o != nil && o.alive && o != h {
			return o
		}
	}
	return nil
}

// admit spawns a new generation at fleet index i, joins it through its
// contact and mirrors it into the shadow tree — a rejoin and a fresh join
// alike.
func (r *run) admit(i int, sub interest.Subscription) (*handle, error) {
	h, err := r.spawn(i, sub)
	if err != nil {
		return nil, err
	}
	if c := r.contact(h); c != nil {
		_ = h.n.Join(c.a)
	}
	_ = r.shadow.Add(tree.Member{Addr: h.a, Sub: h.sub})
	return h, nil
}

// counters sums node generations' wire, matching and coding counters.
type counters struct {
	envelopes, wireBytes int64
	match                core.MatchStats
	coding               fec.Stats
}

// add banks one node generation's counters.
func (c *counters) add(n *node.Node) {
	env, wb := n.WireStats()
	c.envelopes += env
	c.wireBytes += wb
	c.match.Accumulate(n.MatchStats())
	c.coding.Accumulate(n.FECStats())
}

// outcome folds per-event outcomes into one report row: the fleet's, or one
// popularity bucket's. Audienced events are those with a nonzero eligible
// set, the only ones with a reliability to report.
type outcome struct {
	events, audienced int
	relSum, relMin    float64
	reached, falseP   int
}

// add folds one event in. False positives compare reach and interest both
// at publish time — the eligible set shrinks when interested members crash
// later, so measuring against it would overstate the surplus.
func (o *outcome) add(er EventReport, interested int) {
	o.events++
	if er.Eligible > 0 {
		if o.audienced == 0 || er.Reliability < o.relMin {
			o.relMin = er.Reliability
		}
		o.audienced++
		o.relSum += er.Reliability
	}
	o.reached += er.Reached
	o.falseP += max(0, er.Reached-interested)
}

// rates returns the mean and minimum reliability over audienced events
// (both 0 when there are none) and the false-positive rate over all events.
func (o *outcome) rates() (mean, lowest, fpRate float64) {
	if o.audienced > 0 {
		mean, lowest = o.relSum/float64(o.audienced), o.relMin
	}
	if o.reached > 0 {
		fpRate = float64(o.falseP) / float64(o.reached)
	}
	return mean, lowest, fpRate
}

// finish computes the end-of-run report fields and stops the fleet.
func (r *run) finish(wallStart time.Time) {
	r.eng.mergeDeliveries()
	r.report.VirtualMillis = r.vc.Now().Sub(r.start).Milliseconds()

	memMin, memMax := -1, 0
	for _, h := range r.handles {
		if h == nil || !h.alive {
			continue
		}
		r.report.AliveAtEnd++
		l := h.n.KnownMembers()
		if memMin < 0 || l < memMin {
			memMin = l
		}
		if l > memMax {
			memMax = l
		}
		r.report.DeliveriesDropped += h.n.DroppedDeliveries()
	}
	r.report.MembershipMin, r.report.MembershipMax = max(memMin, 0), memMax
	r.report.MessagesDropped = r.fabric.Dropped()

	// Wire, matching and coding cost fleet-wide: the retired generations'
	// banked counters plus every handle's current node (crashed nodes keep
	// their counters). A shared store's gauges are counted once by identity —
	// tree clones within one node share an instance, and summing per handle
	// would multiply the same gauge.
	tot := r.retired
	seenCaches := make(map[uint64]bool)
	for _, h := range r.handles {
		if h == nil || h.n == nil {
			continue
		}
		tot.add(h.n)
		fs := h.n.FoldStats()
		if fs.CacheID != 0 && !seenCaches[fs.CacheID] {
			seenCaches[fs.CacheID] = true
			r.report.FoldCacheEntries += fs.CacheEntries
			r.report.FoldCacheEvictions += fs.CacheEvictions
			r.report.CompilerEntries += fs.CompilerEntries
			r.report.CompilerEvictions += fs.CompilerEvictions
		}
	}
	match, coding := tot.match, tot.coding
	r.report.Envelopes, r.report.WireBytes = tot.envelopes, tot.wireBytes
	r.report.LinkModel = r.sc.Link.Enabled()
	r.report.FECRepairBytes = coding.RepairBytes
	r.report.FECRecoveries = coding.Recovered
	r.report.FECRepairsReceived = coding.RepairsReceived
	r.report.FECExpired = coding.Expired
	r.report.MatchEvals = match.Evals
	r.report.MatchComparisons = match.Comparisons
	r.report.MatchCacheHits = match.Hits
	r.report.MatchCacheMisses = match.Misses
	r.report.FoldRecomputes = match.FoldRecomputes
	r.report.FoldCacheHits = match.FoldHits
	if match.Rounds > 0 {
		r.report.MatchMicrosPerRound = float64(match.Nanos) / 1000 / float64(match.Rounds)
	}
	if secs := float64(r.report.VirtualMillis) / 1000; secs > 0 {
		r.report.EventsPerSec = float64(r.report.Delivered) / secs
	}
	if r.report.Published > 0 {
		r.report.EnvelopesPerEvent = float64(r.report.Envelopes) / float64(r.report.Published)
		r.report.BytesPerEvent = float64(r.report.WireBytes) / float64(r.report.Published)
		r.report.MatchEvalsPerEvent = float64(r.report.MatchEvals) / float64(r.report.Published)
		r.report.RepairBytesPerEvent = float64(r.report.FECRepairBytes) / float64(r.report.Published)
	}
	// Delivery-latency tail in gossip rounds: p99 over (event, node) pairs.
	if n := len(r.latNanos); n > 0 {
		lats := append([]int64(nil), r.latNanos...)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		idx := min((n*99+99)/100, n) // ceil(0.99·n)
		r.report.RoundsToDeliveryP99 = float64(lats[idx-1]) / float64(r.sc.Fleet.GossipInterval.Nanoseconds())
	}

	// Reliability over events: delivered / eligible, eligibility restricted
	// to processes still alive at the end (crashes already removed). The
	// fleet row and every popularity bucket's fold the same rules, in
	// publish order.
	var fleet outcome
	var buckets []outcome
	for _, pub := range r.pubOrder {
		id, elig := pub.ev.ID(), pub.eligible
		er := EventReport{
			ID:          fmt.Sprintf("%s#%d", id.Origin, id.Seq),
			PublishedAt: pub.at,
			Class:       pub.class,
			Eligible:    len(elig),
			Reached:     pub.reached,
		}
		for key := range elig {
			if pub.got[key] {
				er.Delivered++
			}
		}
		if len(elig) > 0 {
			er.Reliability = float64(er.Delivered) / float64(len(elig))
		}
		fleet.add(er, pub.interested)
		if r.sc.ClassBucketOf != nil {
			if b := r.sc.ClassBucketOf(er.Class); b >= 0 {
				if b >= len(buckets) {
					buckets = append(buckets, make([]outcome, b+1-len(buckets))...)
				}
				buckets[b].add(er, pub.interested)
			}
		}
		r.report.Events = append(r.report.Events, er)
	}
	r.report.MeanReliability, r.report.MinReliability, r.report.SummaryFPRate = fleet.rates()
	for b, o := range buckets {
		if o.events == 0 {
			continue
		}
		cr := ClassReport{Bucket: b, Events: o.events, Audienced: o.audienced}
		cr.MeanReliability, cr.MinReliability, cr.SummaryFPRate = o.rates()
		r.report.ClassReliability = append(r.report.ClassReliability, cr)
	}

	sumHash := sha256.Sum256(r.trace.Bytes())
	r.report.TraceSHA256 = hex.EncodeToString(sumHash[:])
	r.report.TraceBytes = r.trace.Len()
	r.report.WallMillis = time.Since(wallStart).Milliseconds()

	// Measure live heap per node while the fleet is still resident: a full
	// collection first so the figure reflects reachable state, not garbage
	// accumulated while GC was off.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if r.report.Nodes > 0 {
		r.report.MBPerNode = float64(ms.HeapAlloc) / float64(r.report.Nodes) / (1 << 20)
	}

	for _, h := range r.handles {
		if h != nil && h.alive {
			h.alive = false
			h.n.Stop()
		}
	}
}

// keysOf renders a handle list for the op log.
func keysOf(hs []*handle) string {
	var b bytes.Buffer
	for i, h := range hs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(h.key)
	}
	if b.Len() == 0 {
		return "(none)"
	}
	return b.String()
}

// mixSeed derives a per-(node, generation) RNG seed from the campaign seed
// with a splitmix64 round, so fleets under different campaign seeds behave
// differently while staying deterministic.
func mixSeed(seed int64, index, gen int) int64 {
	z := uint64(seed) + uint64(index)*0x9e3779b97f4a7c15 + uint64(gen)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // a zero node seed would fall back to the address-derived default
	}
	return int64(z)
}
