package main

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/clock"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/fec"
	"pmcast/internal/harness"
	"pmcast/internal/interest"
	"pmcast/internal/membership"
	"pmcast/internal/node"
	"pmcast/internal/sim"
	"pmcast/internal/transport"
	"pmcast/internal/tree"
	"pmcast/internal/wire"
)

// Layers are measured from outside: each row below times calls into one
// layer's public functions, on traffic the traced pass captured (the
// workload's own mix) or on fixed synthetic inputs (the trajectory rows that
// no workload is predicted to move).

// rowBudget is how long one timed row runs (workloads.json: row_budget_ms).
type rowBudget time.Duration

func (c *config) rowBudget() rowBudget {
	return rowBudget(time.Duration(c.RowBudgetMs) * time.Millisecond)
}

// time calls fn until the budget is spent (at least three times) and returns
// the mean nanoseconds and heap allocations per call.
func (b rowBudget) time(fn func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := 0
	start := time.Now()
	for n < 3 || time.Since(start) < time.Duration(b) {
		fn()
		n++
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// timeSetup is time for calls that need untimed preparation: prep runs before
// every fn and only fn is timed.
func (b rowBudget) timeSetup(prep, fn func()) float64 {
	var total time.Duration
	n := 0
	start := time.Now()
	for n < 3 || time.Since(start) < 2*time.Duration(b) {
		prep()
		t0 := time.Now()
		fn()
		total += time.Since(t0)
		n++
	}
	return float64(total.Nanoseconds()) / float64(n)
}

func transportTarget(w *workloadSpec) addr.Address {
	if w.Kind != "live" {
		return addr.Address{}
	}
	return addr.MustRegular(w.Arity, w.Depth).AddressAt(0)
}

// runtimeProbe is the Go runtime's cumulative cost counters.
type runtimeProbe struct {
	gcCPU      float64 // seconds
	allocObjs  uint64
	allocBytes uint64
}

func readRuntime() runtimeProbe {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	var p runtimeProbe
	if s[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		p.allocObjs = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		p.allocBytes = s[2].Value.Uint64()
	}
	return p
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// zeroRows gives every per-layer metric a value, so a row a workload has
// nothing to say about reads 0 rather than being absent.
func zeroRows() map[string]float64 {
	rows := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		rows[d.Name] = 0
	}
	return rows
}

// ---- fixed rows -----------------------------------------------------------

// syntheticEvent builds an event whose body encodes to about size bytes.
func syntheticEvent(seq uint64, size int) event.Event {
	attrs := map[string]event.Value{"n": event.Int(int64(seq))}
	for i := 0; size > 24; i++ {
		pad := size - 24
		if pad > 96 {
			pad = 96
		}
		attrs[fillerNames[i%len(fillerNames)]+string(rune('a'+i/len(fillerNames)))] = event.Str(string(make([]byte, pad)))
		size -= pad + 8
	}
	return event.New(event.ID{Origin: "0.0.0", Seq: seq}, attrs)
}

// zipfFleet draws a seeded Zipf fleet of the given shape: the members every
// synthetic tree and roster row is built from.
func zipfFleet(arity, depth int, seed int64) (addr.Space, []tree.Member, *zipfGen, *rand.Rand) {
	space := addr.MustRegular(arity, depth)
	n := space.Capacity()
	zg := newZipfGen(zipfSpec{Topics: 512, Alpha: 1, MeanSubs: 24, MaxSubs: 256, Locality: 0.8}, arity)
	rng := rand.New(rand.NewSource(seed))
	members := make([]tree.Member, n)
	for i := range members {
		a := space.AddressAt(i)
		set := zg.draw(rng, zg.count((float64(i)+0.5)/float64(n)), a.Digit(1), false)
		members[i] = tree.Member{Addr: a, Sub: set.subscription()}
	}
	return space, members, zg, rng
}

func fixedRows(cfg *config, rows map[string]float64) {
	budget := cfg.rowBudget()
	// wire: three size points of one encode call.
	g64 := core.Gossip{Event: syntheticEvent(1, 64), Depth: 1, Rate: 0.5, Round: 1}
	g1k := core.Gossip{Event: syntheticEvent(2, 1024), Depth: 1, Rate: 0.5, Round: 1}
	b16 := wire.Batch{}
	for i := 0; i < 16; i++ {
		b16.Gossips = append(b16.Gossips, core.Gossip{Event: syntheticEvent(uint64(10+i), 64), Depth: 2, Rate: 0.5, Round: 2})
	}
	buf := make([]byte, 0, 1<<16)
	for name, msg := range map[string]any{"wire.encode_ns_64b": g64, "wire.encode_ns_1kb": g1k, "wire.encode_ns_batch16": b16} {
		msg := msg
		rows[name], _ = budget.time(func() { buf, _ = wire.AppendMessage(buf[:0], msg) })
	}

	// transport: one envelope through the in-memory fabric's fault path
	// (Gilbert–Elliott chain, jitter, delayed delivery on a virtual clock).
	vc := clock.NewVirtual()
	net, err := transport.NewNetwork(transport.Config{
		MinDelay: 500 * time.Microsecond, MaxDelay: 2 * time.Millisecond,
		Link:  transport.LinkModel{PGB: 0.01, PBG: 0.2, BadLoss: 1, JitterMax: time.Millisecond},
		Clock: vc, Seed: 1,
	})
	if err == nil {
		space := addr.MustRegular(2, 1)
		a, _ := net.Attach(space.AddressAt(0))
		b, _ := net.Attach(space.AddressAt(1))
		rows["transport.route_ns_linkmodel"], _ = budget.time(func() {
			_ = a.Send(b.Addr(), g64) // loss is silent; both ends are attached
			vc.Advance(4 * time.Millisecond)
			select {
			case <-b.Recv():
			default:
			}
		})
		_ = net.Close()
	}

	// core: adopting a predecessor that has seen 10 000 events.
	space, members, zg, rng := zipfFleet(4, 3, 7)
	t64, err := tree.Build(tree.Config{Space: space, R: cfg.Protocol.R}, members)
	if err == nil {
		ccfg := core.Config{F: cfg.Protocol.F, C: cfg.Protocol.C}
		old, perr := core.BuildProcess(t64, space.AddressAt(0), ccfg)
		if perr == nil {
			tick := rand.New(rand.NewSource(1))
			for i := 0; i < 10000; i++ {
				old.Receive(core.Gossip{Event: syntheticEvent(uint64(100+i), 32), Depth: 1, Rate: 0.5, Round: 1 << 20})
				if i%500 == 499 {
					for old.Pending() > 0 {
						old.TickRound(tick)
					}
					old.Deliveries()
				}
			}
			var fresh *core.Process
			rows["core.adopt_state_us"] = budget.timeSetup(
				func() { fresh, _ = core.BuildProcess(t64, space.AddressAt(0), ccfg) },
				func() { fresh.AdoptState(old) }) / 1e3
		}
	}

	// interest: compiling one subscription, and one regrouped summary.
	sub := members[len(members)/2].Sub
	rows["interest.compile_us"], _ = budget.time(func() { interest.Compile(sub) })
	rows["interest.compile_us"] /= 1e3
	sum := interest.NewSummary()
	for i := 0; i < 16; i++ {
		sum.Add(members[i].Sub)
	}
	rows["interest.compile_summary_us"], _ = budget.time(func() { interest.CompileSummary(sum) })
	rows["interest.compile_summary_us"] /= 1e3

	// tree: a full build over 1024 members.
	space1k, members1k, _, _ := zipfFleet(4, 5, 11)
	ns, _ := budget.time(func() { _, _ = tree.Build(tree.Config{Space: space1k, R: cfg.Protocol.R}, members1k) })
	rows["tree.build_ms_1024"] = ns / 1e6

	// membership: anti-entropy between two services that differ in one line.
	for _, sz := range []struct {
		name         string
		arity, depth int
	}{{"membership.handle_digest_us_64", 4, 3}, {"membership.handle_digest_us_4096", 4, 6}} {
		sp := addr.MustRegular(sz.arity, sz.depth)
		recs := make([]membership.Record, sp.Capacity())
		for i := range recs {
			recs[i] = membership.Record{Addr: sp.AddressAt(i), Sub: members[i%len(members)].Sub, Stamp: 1, Alive: true}
		}
		roster, rerr := membership.NewRoster(recs)
		if rerr != nil {
			continue
		}
		mk := func(i int) *membership.Service {
			s, _ := membership.NewWithRoster(membership.Config{Self: sp.AddressAt(i), Space: sp, R: cfg.Protocol.R, SuspectAfter: time.Hour}, roster)
			return s
		}
		a, b := mk(0), mk(1)
		if a == nil || b == nil {
			continue
		}
		b.Subscribe(zg.draw(rng, 24, 0, true).subscription())
		full := b.MakeDigest()
		ns, _ := budget.time(func() { a.HandleDigest(full) })
		rows[sz.name] = ns / 1e3
		if sz.depth == 3 {
			ns, _ = budget.time(func() { a.MakeDigest() })
			rows["membership.make_digest_us"] = ns / 1e3
			rec := recs[5]
			ns, _ = budget.time(func() {
				rec.Stamp++
				a.Apply(membership.Update{From: sp.AddressAt(5), Records: []membership.Record{rec}})
			})
			rows["membership.apply_update_us"] = ns / 1e3
		}
	}

	// fec: no workload enables coding; these rows give a coding change its
	// before and after.
	srcs := make([]fec.Source, 8)
	for i := range srcs {
		ev := syntheticEvent(uint64(500+i), 96)
		srcs[i] = fec.Source{ID: ev.ID(), Meta: fec.Meta{Depth: 1, Rate: 0.5}, Body: wire.AppendEventBody(nil, ev)}
	}
	enc2, enc1 := fec.NewEncoder(8, 2), fec.NewEncoder(8, 1)
	rows["fec.encode_ns_k8r2"], _ = budget.time(func() { enc2.Encode(srcs) })
	rows["fec.xor_encode_ns_k8r1"], _ = budget.time(func() { enc1.Encode(srcs) })
	if code, cerr := fec.NewCode(8, 2); cerr == nil {
		symLen := 128
		shards := make([][]byte, 10)
		for i := range shards {
			shards[i] = make([]byte, symLen)
			for j := range shards[i] {
				shards[i][j] = byte(i*31 + j)
			}
		}
		code.EncodeInto(shards[8:], shards[:8])
		work := make([][]byte, 10)
		rows["fec.reconstruct_ns_k8r2"] = budget.timeSetup(
			func() { copy(work, shards); work[1], work[6] = nil, nil },
			func() { _ = code.Reconstruct(work) }) // shape is fixed: k of k+r present
	}

	// clock: schedule-and-pop against 100 000 pending timers.
	pend := clock.NewVirtual()
	for i := 0; i < 100000; i++ {
		pend.AfterFunc(time.Duration(rng.Int63n(int64(time.Hour))), func() {})
	}
	rows["clock.schedule_pop_ns"], _ = budget.time(func() {
		pend.AfterFunc(time.Duration(rng.Int63n(int64(time.Hour))), func() {})
		pend.RunNext()
	})

	// harness: the serial (shards=1) loop on two registry campaigns.
	for row, name := range cfg.CampaignRows {
		sc, lerr := harness.Lookup(name)
		if lerr != nil {
			continue
		}
		sc.Shards = 1
		t0 := time.Now()
		if _, rerr := sc.Run(1); rerr == nil {
			rows[row] = float64(time.Since(t0).Nanoseconds()) / 1e6
		}
	}

	// sim: one paper-scale dissemination (Figure 4's shape).
	if s, serr := sim.New(sim.Params{A: 22, D: 3, R: 3, F: 2, C: 3, AssumedEps: -1, AssumedTau: -1}); serr == nil {
		srng := rand.New(rand.NewSource(1))
		ns, _ := budget.time(func() { _, _ = s.Run(0.5, srng) })
		rows["sim.dissemination_ms"] = ns / 1e6
	}

	// addr, event: the two constructors on every hot path.
	a := space1k.AddressAt(777)
	var sink string
	rows["addr.key_ns"], _ = budget.time(func() { sink = a.Key() })
	_ = sink
	attrs := (&eventSpec{Topic: 3, Filler: []int64{1, 2, 3, 4}}).attrs(1, 1)
	rows["event.build_ns"], _ = budget.time(func() { event.New(event.ID{Origin: "0.0.0", Seq: 1}, attrs) })

	rows["membership.join_converge_ms"] = joinConverge(cfg)
}

// joinConverge times a restarted node's way back into a 16-node in-memory
// fleet: Stop, re-create knowing nobody, Join through a neighbour, until its
// membership is full again. Median of 20.
func joinConverge(cfg *config) float64 {
	w := &workloadSpec{Name: "join", Fabric: "mem", Arity: 4, Depth: 2, GossipMs: 2}
	subs := make([]interest.Subscription, cfg.nodes(w))
	for i := range subs {
		subs[i] = interest.NewSubscription()
	}
	f, err := buildFleet(cfg, w, subs, 1, nil)
	if err != nil {
		return 0
	}
	defer f.stop()
	var ms []float64
	for k := 0; k < 20; k++ {
		i := 1 + k%(len(f.nodes)-1)
		f.nodes[i].Stop()
		nc := nodeConfig(cfg, w, f.space, f.addrs[i], subs[i], nil, int64(k+2))
		nc.DeferViews = false
		n, err := node.New(f.tr, nc)
		if err != nil {
			return 0
		}
		f.nodes[i] = n
		t0 := time.Now()
		n.Start()
		if err := n.Join(f.addrs[0]); err != nil {
			return 0
		}
		for n.KnownMembers() < len(f.nodes) && time.Since(t0) < 5*time.Second {
			time.Sleep(200 * time.Microsecond)
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ms)
}

// ---- rows on the workload's own mix ----------------------------------------

// capture is the traffic a traced pass kept for replay.
type capture struct {
	payloads []any                   // uniform sample of sent payloads
	inbound  []transport.Envelope    // in-order stream addressed to node 0
	subs     []interest.Subscription // the fleet's initial subscriptions
	encoded  bool                    // the fabric runs the wire codec
	// redraw is the k-th subscription a flux wave would install on the node
	// at index i (inverted ranking when asked).
	redraw func(i, k int, inverted bool) interest.Subscription
}

// zipfRedraw draws redraws from a live workload's own Zipf model (the
// default model on match-all fleets, which have none).
func zipfRedraw(w *workloadSpec) func(i, k int, inverted bool) interest.Subscription {
	zspec := w.Zipf
	if zspec.Topics == 0 {
		zspec = zipfSpec{Topics: 512, Alpha: 1, MeanSubs: 24, MaxSubs: 256, Locality: 0.8}
	}
	zg := newZipfGen(zspec, w.Arity)
	rng := rand.New(rand.NewSource(99))
	per := 1
	for d := 1; d < w.Depth; d++ {
		per *= w.Arity
	}
	return func(i, _ int, inverted bool) interest.Subscription {
		return zg.draw(rng, 24, i/per, inverted).subscription()
	}
}

// campaignCapture stands in for a traced live pass where there is none (the
// simulated workload): a 64-node corner of the campaign's own fleet — its
// subscriptions, its flux redraws, its events — wrapped as the gossips a
// fleet would exchange, so summaries and folds have the campaign's sizes.
func campaignCapture(w *workloadSpec) (*capture, *workloadSpec, error) {
	sc, err := harness.Lookup(w.Scenario)
	if err != nil {
		return nil, nil, err
	}
	shape := &workloadSpec{Name: w.Name, Arity: 4, Depth: 3, GossipMs: int(sc.Fleet.GossipInterval / time.Millisecond)}
	space := addr.MustRegular(shape.Arity, shape.Depth)
	c := &capture{subs: make([]interest.Subscription, space.Capacity())}
	for i := range c.subs {
		c.subs[i] = interest.NewSubscription().Where("b", interest.EqInt(int64(i%2)))
		if sc.SubscriptionFor != nil {
			c.subs[i] = sc.SubscriptionFor(space.AddressAt(i), i)
		}
	}
	c.redraw = func(i, k int, _ bool) interest.Subscription {
		if sc.FluxFor == nil {
			return interest.NewSubscription().Where("b", interest.EqInt(int64(k%2)))
		}
		return sc.FluxFor(space.AddressAt(i), i, int64(k))
	}
	rng := rand.New(rand.NewSource(1))
	classes := sc.Fleet.Classes
	if classes <= 0 {
		classes = 2
	}
	for i := 0; i < reservoirSize; i++ {
		class := rng.Int63n(int64(classes))
		attrs := map[string]event.Value{"b": event.Int(class)}
		if sc.EventFor != nil {
			attrs = sc.EventFor(class, rng)
		}
		ev := event.New(event.ID{Origin: space.AddressAt(i % space.Capacity()).Key(), Seq: uint64(i + 1)}, attrs)
		g := core.Gossip{Event: ev, Depth: 1 + i%shape.Depth, Rate: 0.3, Round: i % 4}
		c.payloads = append(c.payloads, g)
		c.inbound = append(c.inbound, transport.Envelope{From: space.AddressAt(1 + i%(space.Capacity()-1)), To: space.AddressAt(0), Payload: g})
	}
	return c, shape, nil
}

// mixCosts are the per-operation costs measured on a capture; the layer
// shares are built from them.
type mixCosts struct {
	encNs, decNs   float64 // wire: per envelope
	memSendNs      float64 // transport: per envelope through the in-memory fabric, send and receive
	matchNs        float64 // interest: per compiled-matcher evaluation
	profileSelfNs  float64 // tree: per TreeView.Profile call, matching excluded
	foldNs         float64 // tree: per summary fold of an ApplyDelta, fresh sets
	foldHitNs      float64 // tree: per fold served by the fold cache
	tickIdleNs     float64 // core: TickRound with nothing pending
	perSendNs      float64 // core: marginal TickRound cost per gossip emitted
	receiveNs      float64 // core: Process.Receive of a first reception
	buildProcessNs float64 // core: BuildProcess over the fleet's tree
	adoptNsPerSeen float64 // core: AdoptState per seen event carried over
	handleDigestNs float64 // membership: HandleDigest over the captured probes
	applyUpdateNs  float64 // membership: Apply of one changed line
	nodeSelfNs     float64 // node: engine self time per inbound envelope
}

func eventsOf(payloads []any) []event.Event {
	var evs []event.Event
	for _, p := range payloads {
		switch m := p.(type) {
		case core.Gossip:
			evs = append(evs, m.Event)
		case wire.Batch:
			for _, g := range m.Gossips {
				evs = append(evs, g.Event)
			}
		}
	}
	return evs
}

// mixRows replays a capture through each layer's public functions and fills
// the rows that depend on the workload's mix. ticksPerEnvelope is how many
// gossip ticks node 0 ran per inbound envelope in the live pass.
func mixRows(cfg *config, w *workloadSpec, c *capture, rows map[string]float64, ticksPerEnvelope float64) mixCosts {
	var mc mixCosts
	budget := cfg.rowBudget()
	space := addr.MustRegular(w.Arity, w.Depth)
	nodes := space.Capacity()
	self := space.AddressAt(0)

	// wire: encode and decode the sampled envelopes.
	var frames [][]byte
	var nbytes, nevents int
	for _, p := range c.payloads {
		b, err := wire.Encode(p)
		if err != nil {
			continue
		}
		frames = append(frames, b)
		nbytes += len(b)
		switch m := p.(type) {
		case core.Gossip:
			nevents++
		case wire.Batch:
			nevents += len(m.Gossips)
		}
	}
	if len(frames) > 0 {
		buf := make([]byte, 0, 1<<16)
		i := 0
		mc.encNs, rows["wire.encode_allocs"] = budget.time(func() {
			buf, _ = wire.AppendMessage(buf[:0], c.payloads[i%len(c.payloads)]) // every payload encoded above
			i++
		})
		dec := wire.NewDecoder()
		i = 0
		mc.decNs, rows["wire.decode_allocs"] = budget.time(func() {
			_, _ = dec.Decode(frames[i%len(frames)]) // frames are our own encodings
			i++
		})
		rows["wire.encode_batch_ns"], rows["wire.decode_batch_ns"] = mc.encNs, mc.decNs
		rows["wire.bytes_per_envelope"] = float64(nbytes) / float64(len(frames))
		rows["wire.events_per_envelope"] = float64(nevents) / float64(len(frames))
	}

	// transport: the sampled envelopes through an in-memory fabric of the
	// workload's own loss setting, send and receive, nothing competing. (The
	// Send spans of the live pass are wall time on a process with more
	// runnable goroutines than processors: they time the wait to run too.)
	if !c.encoded && len(c.payloads) > 0 {
		if net, err := transport.NewNetwork(transport.Config{Loss: w.Loss, Seed: 1, QueueLen: 4096}); err == nil {
			a, aerr := net.Attach(space.AddressAt(0))
			b, berr := net.Attach(space.AddressAt(1))
			if aerr == nil && berr == nil {
				i := 0
				mc.memSendNs, _ = budget.time(func() {
					_ = a.Send(b.Addr(), c.payloads[i%len(c.payloads)]) // loss is silent; both ends are attached
					i++
					for {
						select {
						case <-b.Recv():
							continue
						default:
						}
						break
					}
				})
				rows["transport.send_ns_per_envelope"] = mc.memSendNs
			}
			_ = net.Close() // nothing in flight
		}
	}

	// The fleet's tree, as every node folds it.
	members := make([]tree.Member, nodes)
	for i := range members {
		members[i] = tree.Member{Addr: space.AddressAt(i), Sub: c.subs[i]}
	}
	t, err := tree.Build(tree.Config{Space: space, R: cfg.Protocol.R}, members)
	evs := eventsOf(c.payloads)
	if err != nil || len(evs) == 0 {
		return mc
	}

	// interest: one compiled-matcher evaluation — the regrouped summaries on
	// node 0's view lines, which is what the gossip core evaluates, against
	// the captured events.
	var views []*core.TreeView
	var matchers []*interest.CompiledMatcher
	for d := 1; d <= t.Depth(); d++ {
		v := t.ViewAt(self, d)
		if tv := core.NewTreeView(v, self); tv != nil {
			views = append(views, tv)
			for _, line := range v.Lines {
				matchers = append(matchers, line.Compiled)
			}
		}
	}
	if len(matchers) == 0 {
		return mc
	}
	i := 0
	var hit bool
	mc.matchNs, _ = budget.time(func() {
		hit = matchers[i%len(matchers)].Matches(evs[i%len(evs)])
		i++
	})
	_ = hit
	rows["interest.match_compiled_ns"] = mc.matchNs

	// tree: one susceptibility profile of a view, as the gossip core reads
	// it; its self cost is what the matcher evaluations inside do not explain.
	var prof core.MatchProfile
	var evals uint64
	calls := 0
	profileNs, _ := budget.time(func() {
		prof = core.MatchProfile{}
		views[calls%len(views)].Profile(evs[calls%len(evs)], &prof)
		evals += prof.Cost.Evals
		calls++
	})
	rows["tree.view_profile_ns"] = profileNs
	mc.profileSelfNs = math.Max(0, profileNs-float64(evals)/float64(calls)*mc.matchNs)

	// tree: folding one member's redrawn subscription into the trie — fresh
	// sets first (every fold computed), then a toggle between two known
	// sets, where every fold is a cache hit: what a hit costs.
	vi := nodes / 2
	victim := space.AddressAt(vi)
	apply := func(tt *tree.Tree, sub interest.Subscription) {
		_ = tt.ApplyDelta(tree.Delta{Update: []tree.Member{{Addr: victim, Sub: sub}}}) // victim is a member
	}
	folds := func(tt *tree.Tree) float64 {
		fs := tt.FoldStats()
		return float64(fs.Recomputes + fs.Hits)
	}
	tt := t.Clone()
	const redraws = 64
	f0, t0 := folds(tt), time.Now()
	for k := 0; k < redraws; k++ {
		apply(tt, c.redraw(vi, k, k%2 == 1))
	}
	el := float64(time.Since(t0).Nanoseconds())
	rows["tree.apply_delta_us"] = el / redraws / 1e3
	if d := folds(tt) - f0; d > 0 {
		mc.foldNs = el / d
	}
	a, b := c.redraw(vi, redraws, false), c.redraw(vi, redraws+1, true)
	apply(tt, a)
	apply(tt, b)
	f0, t0 = folds(tt), time.Now()
	for k := 0; k < 4*redraws; k++ {
		if k%2 == 0 {
			apply(tt, a)
		} else {
			apply(tt, b)
		}
	}
	if d := folds(tt) - f0; d > 0 {
		mc.foldHitNs = float64(time.Since(t0).Nanoseconds()) / d
	}
	rows["tree.fold_hit_ns"] = mc.foldHitNs

	// core: the gossip process over the fleet's tree.
	ccfg := core.Config{F: cfg.fanout(w), C: cfg.Protocol.C}
	var proc *core.Process
	mc.buildProcessNs = budget.timeSetup(func() {}, func() { proc, _ = core.BuildProcess(t, self, ccfg) })
	if proc != nil {
		tick := rand.New(rand.NewSource(5))
		mc.tickIdleNs, _ = budget.time(func() { proc.TickRound(tick) })
		// 64 events pending: the first tick computes their profiles (tree and
		// interest work); the second is the core's own round bookkeeping.
		sends := 0
		rounds := 0
		warm := budget.timeSetup(func() {
			proc.Reset()
			for k := 0; k < 64; k++ {
				_ = proc.Multicast(evs[k%len(evs)].WithID(event.ID{Origin: "bench", Seq: uint64(k + 1)})) // IDs are non-zero
			}
			proc.TickRound(tick)
		}, func() {
			for _, rs := range proc.TickRound(tick) {
				sends += len(rs.Gossips)
			}
			rounds++
		})
		rows["core.tick_round_us"] = warm / 1e3
		if sends > 0 {
			mc.perSendNs = (warm - mc.tickIdleNs) * float64(rounds) / float64(sends)
			if mc.perSendNs < 0 {
				mc.perSendNs = 0
			}
		}
		proc.Reset()
		seq := uint64(0)
		mc.receiveNs, _ = budget.time(func() {
			seq++
			proc.Receive(core.Gossip{Event: evs[int(seq)%len(evs)].WithID(event.ID{Origin: "bench", Seq: seq}), Depth: t.Depth(), Rate: 0.5, Round: 1 << 20})
			if seq%256 == 0 {
				proc.TickRound(tick) // expire what piled up, as a live node's ticks do
				proc.Deliveries()
			}
		})
		rows["core.receive_ns"] = mc.receiveNs
	}
	if v := rows["core.adopt_state_us"]; v > 0 {
		mc.adoptNsPerSeen = v * 1e3 / 10000
	}

	// membership: the captured probes against a service holding the roster.
	subs := make([]interest.Subscription, nodes)
	for i := range subs {
		subs[i] = members[i].Sub
	}
	if roster, rerr := newRoster(space, subs); rerr == nil {
		svc, serr := membership.NewWithRoster(membership.Config{Self: self, Space: space, R: cfg.Protocol.R, SuspectAfter: time.Hour}, roster)
		var digests []membership.Digest
		for _, p := range c.payloads {
			switch m := p.(type) {
			case membership.Digest:
				digests = append(digests, m)
			case wire.Batch:
				if m.Digest != nil {
					digests = append(digests, *m.Digest)
				}
			}
		}
		if serr == nil {
			if len(digests) == 0 {
				digests = append(digests, svc.MakeSummaryDigest())
			}
			k := 0
			mc.handleDigestNs, _ = budget.time(func() {
				svc.HandleDigest(digests[k%len(digests)])
				k++
			})
			rec := roster.Records[nodes-1]
			mc.applyUpdateNs, _ = budget.time(func() {
				rec.Stamp++
				svc.Apply(membership.Update{From: rec.Addr, Records: []membership.Record{rec}})
			})
		}
	}

	mc.nodeSelfNs = twinReplay(cfg, w, c, space, subs, rows, ticksPerEnvelope, &mc)
	return mc
}

// twinReplay feeds node 0's captured inbound stream, in order, to a
// step-mode twin of node 0 — same address, roster and configuration, driven
// synchronously — interleaving gossip ticks at the live ratio. It fills the
// node rows and returns the engine's self time per envelope: what is left of
// the replay once the wire, core, tree, interest and membership work inside
// it is priced at the costs measured above.
func twinReplay(cfg *config, w *workloadSpec, c *capture, space addr.Space, subs []interest.Subscription, rows map[string]float64, ticksPerEnvelope float64, mc *mixCosts) float64 {
	if len(c.inbound) == 0 {
		return 0
	}
	net, err := transport.NewNetwork(transport.Config{QueueLen: 16})
	if err != nil {
		return 0
	}
	defer net.Close()
	roster, err := newRoster(space, subs)
	if err != nil {
		return 0
	}
	nc := nodeConfig(cfg, w, space, space.AddressAt(0), subs[0], roster, 1)
	nc.DecodeWorkers, nc.EncodeWorkers = 0, 0 // step mode is always serial
	twin, err := node.New(net, nc)
	if err != nil {
		return 0
	}
	defer twin.Stop()
	if err := twin.WarmViews(); err != nil {
		return 0
	}
	stream := c.inbound
	var counts payloadCounts
	if c.encoded {
		// The twin decodes, as the live node's ingress did.
		stream = make([]transport.Envelope, 0, len(c.inbound))
		for _, env := range c.inbound {
			if b, err := wire.Encode(env.Payload); err == nil {
				stream = append(stream, transport.Envelope{From: env.From, To: env.To, Payload: transport.Raw{Frame: b}})
			}
		}
	}
	for _, env := range c.inbound {
		counts.tally(env.Payload)
	}
	var handleNs, tickNs int64
	ticks, owed := 0, 0.0
	for _, env := range stream {
		t0 := nowNs()
		twin.HandleEnvelope(env)
		handleNs += nowNs() - t0
		for owed += ticksPerEnvelope; owed >= 1; owed-- {
			t0 = nowNs()
			twin.TickGossip()
			tickNs += nowNs() - t0
			ticks++
		drain:
			for {
				select {
				case <-twin.Deliveries():
				default:
					break drain
				}
			}
		}
	}
	n := float64(len(stream))
	rows["node.handle_envelope_us"] = float64(handleNs) / n / 1e3
	if ticks > 0 {
		rows["node.tick_gossip_us"] = float64(tickNs) / float64(ticks) / 1e3
	}
	ms := twin.MatchStats()
	inner := float64(ms.Misses)*mc.profileSelfNs + float64(ms.Evals)*mc.matchNs +
		float64(ticks)*mc.tickIdleNs + float64(counts.gossips)*mc.receiveNs +
		float64(counts.digests)*mc.handleDigestNs + float64(counts.updates)*mc.applyUpdateNs
	if c.encoded {
		inner += n * mc.decNs
	}
	self := (float64(handleNs+tickNs) - inner) / n
	if self < 0 {
		self = 0
	}
	return self
}

// ---- assembling a traced run's rows ------------------------------------------

// liveLayers turns a traced live pass into the per-layer rows: counts from
// the accessors the program already has, costs from the tracer's spans and
// the replay, and the shares of process CPU they account for.
func liveLayers(cfg *config, w *workloadSpec, run *liveRun, base, res *liveResult, tr *tracer) map[string]float64 {
	rows := zeroRows()
	rows["runtime.peak_rss_mb"] = peakRSSMB() // before the fixed rows' campaigns inflate it
	fixedRows(cfg, rows)
	nodes := float64(len(run.f.addrs))
	secs := res.extra["nominal.seconds"]
	deliveries := res.extra["nominal.deliveries"]
	events := res.extra["nominal.events"]
	counts := tr.totals()
	d := res.counts

	tr.capMu.Lock()
	c := &capture{payloads: tr.reservoir, inbound: tr.inbound, encoded: run.f.udp != nil, redraw: zipfRedraw(w)}
	for _, set := range run.in.Subs {
		c.subs = append(c.subs, set.subscription())
	}
	inboundSeen := tr.inboundSeen
	tr.capMu.Unlock()
	ticksPerNode := secs * 1000 / float64(w.GossipMs) // over all fleets' nominal phases
	ticksPerEnvelope := 0.0
	if inboundSeen > 0 {
		// The ordered stream is the first fleet's alone.
		ticksPerEnvelope = ticksPerNode / float64(cfg.FleetsPerRun) / float64(inboundSeen)
	}
	mc := mixRows(cfg, w, c, rows, ticksPerEnvelope)

	// Rows straight from the run.
	for _, name := range []string{
		"node.publish_call_us_p50", "node.publish_call_us_p99", "node.dropped_deliveries", "node.egress_dropped",
		"node.deliver_p50_ms", "node.deliver_p99_ms", "node.idle_cpu_ms_per_node_s", "membership.flux_effective_p50_ms",
		"transport.udp.dropped", "transport.udp.malformed",
	} {
		rows[name] = res.extra[name]
	}
	inbox, deliv := tr.depthP99()
	rows["node.delivery_chan_depth_p99"] = deliv
	sent, recvd := float64(d.udp.SentDatagrams), float64(d.udp.RecvDatagrams)
	if run.f.udp != nil {
		rows["transport.udp.inbox_depth_p99"] = inbox
		if sent > 0 {
			rows["transport.udp.send_ns_per_datagram"] = float64(counts.sendNs) / sent
		}
		if n := float64(d.udp.SendSyscalls); n > 0 {
			rows["transport.udp.datagrams_per_send_syscall"] = sent / n
		}
		if n := float64(d.udp.RecvSyscalls); n > 0 {
			rows["transport.udp.datagrams_per_recv_syscall"] = recvd / n
		}
	} else {
		rows["transport.inbox_depth_p99"] = inbox
		rows["transport.dropped"] = float64(d.memDropped)
		if counts.envelopes > 0 {
			res.extra["transport.send_span_ns_per_envelope"] = float64(counts.sendNs) / float64(counts.envelopes)
		}
	}
	if deliveries > 0 {
		rows["transport.envelopes_per_delivery"] = float64(counts.envelopes) / deliveries
		rows["runtime.allocs_per_delivery"] = float64(d.rt.allocObjs) / deliveries
		rows["runtime.alloc_kb_per_delivery"] = float64(d.rt.allocBytes) / 1024 / deliveries
	}
	if events > 0 {
		rows["core.sends_per_event"] = float64(counts.gossips) / events
		rows["interest.match_comparisons_per_event"] = float64(d.match.Comparisons) / events
		rows["runtime.heap_growth_kb_per_kevent"] = float64(d.heap) / 1024 / (events / 1000)
	}
	if lookups := float64(d.match.Hits + d.match.Misses); lookups > 0 {
		rows["core.match_cache_hit_ratio"] = float64(d.match.Hits) / lookups
	}
	foldsDone, foldHits := float64(d.match.FoldRecomputes), float64(d.match.FoldHits)
	rows["tree.fold_recomputes"] = foldsDone
	if foldsDone+foldHits > 0 {
		rows["tree.fold_cache_hit_ratio"] = foldHits / (foldsDone + foldHits)
	}
	rows["interest.compiler_entries"] = float64(d.match.CompilerEntries)
	rows["interest.compiler_evictions"] = float64(d.match.CompilerEvictions)
	if secs > 0 {
		rows["membership.msgs_per_node_s"] = float64(counts.digests+counts.updates+counts.heartbeats) / nodes / secs
	}

	// Shares of the nominal phase's process CPU.
	cpu := float64(res.nominalCPU)
	if cpu <= 0 {
		return rows
	}
	gcNs := d.rt.gcCPU * 1e9
	rows["runtime.gc_cpu_share"] = gcNs / cpu
	evals, misses := float64(d.match.Evals), float64(d.match.Misses)
	rebuilds := (foldsDone + foldHits) / float64(w.Depth+1) // one ApplyDelta refolds the path to the root
	seenPerNode := (deliveries/nodes)/2 + float64(len(run.in.Warmup))*deliveries/math.Max(events, 1)/nodes

	share := map[string]float64{}
	if run.f.udp != nil {
		share["wire"] = sent*mc.encNs + recvd*mc.decNs
		share["transport.udp"] = math.Max(0, float64(counts.sendNs)-sent*mc.encNs)
	} else {
		share["transport"] = float64(counts.envelopes) * mc.memSendNs
	}
	share["interest"] = evals * mc.matchNs
	share["tree"] = misses*mc.profileSelfNs + foldsDone*mc.foldNs + foldHits*mc.foldHitNs
	share["core"] = nodes*ticksPerNode*mc.tickIdleNs + float64(counts.gossips)*mc.perSendNs + deliveries*mc.receiveNs +
		rebuilds*(mc.buildProcessNs+seenPerNode*mc.adoptNsPerSeen)
	share["membership"] = float64(counts.digests)*mc.handleDigestNs + float64(counts.updates)*mc.applyUpdateNs
	publishSelf := float64(tr.spanTotals(true)[spanPublish][2])
	share["node"] = float64(counts.envelopes)*mc.nodeSelfNs + publishSelf
	share["runtime"] = gcNs
	attributed := 0.0
	for layer, ns := range share {
		rows["layer_share."+layer] = 100 * ns / cpu
		attributed += ns
	}
	rows["layer_share.unattributed"] = 100 * (cpu - attributed) / cpu

	res.extra["trace.base_cpu_us_per_delivery"] = base.metrics["cpu_us_per_delivery"]
	if b := base.metrics["cpu_us_per_delivery"]; b > 0 {
		rows["trace.overhead_pct"] = 100 * (res.metrics["cpu_us_per_delivery"] - b) / b
	}
	return rows
}

// simLayers turns a traced campaign into the per-layer rows: the report's
// exact counts, and their price at the costs of a synthetic zipf capture.
func simLayers(cfg *config, w *workloadSpec, res *simResult) map[string]float64 {
	rows := zeroRows()
	rows["runtime.peak_rss_mb"] = peakRSSMB() // before the fixed rows' campaigns inflate it
	fixedRows(cfg, rows)
	c, shape, err := campaignCapture(w)
	if err != nil {
		return rows
	}
	mc := mixRows(cfg, shape, c, rows, 0.25)
	rep := res.report
	rows["harness.clock_events"] = float64(rep.ClockEvents)
	if s := res.metrics["wall_s"]; s > 0 {
		rows["harness.clock_events_per_s"] = float64(rep.ClockEvents) / s
	}
	rows["harness.envelopes"] = float64(rep.Envelopes)
	rows["harness.match_evals"] = float64(rep.MatchEvals)
	rows["harness.fold_recomputes"] = float64(rep.FoldRecomputes)
	rows["harness.fold_cache_hits"] = float64(rep.FoldCacheHits)
	rows["tree.fold_recomputes"] = float64(rep.FoldRecomputes)
	if d := float64(rep.FoldRecomputes + rep.FoldCacheHits); d > 0 {
		rows["tree.fold_cache_hit_ratio"] = float64(rep.FoldCacheHits) / d
	}
	if d := float64(rep.MatchCacheHits + rep.MatchCacheMisses); d > 0 {
		rows["core.match_cache_hit_ratio"] = float64(rep.MatchCacheHits) / d
	}
	if rep.Published > 0 {
		rows["interest.match_comparisons_per_event"] = float64(rep.MatchComparisons) / float64(rep.Published)
	}
	rows["interest.compiler_entries"] = float64(rep.CompilerEntries)
	rows["interest.compiler_evictions"] = float64(rep.CompilerEvictions)
	rows["transport.dropped"] = float64(rep.MessagesDropped)
	rows["node.dropped_deliveries"] = float64(rep.DeliveriesDropped)
	if rep.Delivered > 0 {
		rows["transport.envelopes_per_delivery"] = float64(rep.Envelopes) / float64(rep.Delivered)
		rows["runtime.allocs_per_delivery"] = float64(res.rt[1].allocObjs-res.rt[0].allocObjs) / float64(rep.Delivered)
		rows["runtime.alloc_kb_per_delivery"] = float64(res.rt[1].allocBytes-res.rt[0].allocBytes) / 1024 / float64(rep.Delivered)
	}
	rows["node.deliver_p99_ms"] = res.extra["sim.virtual_deliver_p99_ms"]

	cpu := float64(res.cpu)
	if cpu <= 0 {
		return rows
	}
	gcNs := (res.rt[1].gcCPU - res.rt[0].gcCPU) * 1e9
	rows["runtime.gc_cpu_share"] = gcNs / cpu
	share := map[string]float64{
		"interest":  float64(rep.MatchEvals) * mc.matchNs,
		"tree":      float64(rep.MatchCacheMisses)*mc.profileSelfNs + float64(rep.FoldRecomputes)*mc.foldNs + float64(rep.FoldCacheHits)*mc.foldHitNs,
		"transport": float64(rep.Envelopes) * rows["transport.route_ns_linkmodel"],
		"clock":     float64(rep.ClockEvents) * rows["clock.schedule_pop_ns"],
		"runtime":   gcNs,
	}
	attributed := 0.0
	for layer, ns := range share {
		rows["layer_share."+layer] = 100 * ns / cpu
		attributed += ns
	}
	// Membership digests, node engine work and the harness's own loop cannot
	// be counted from outside a campaign; they are in the remainder.
	rows["layer_share.unattributed"] = 100 * (cpu - attributed) / cpu
	return rows
}
