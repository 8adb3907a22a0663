package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pmcast/internal/core"
	"pmcast/internal/interest"
	"pmcast/internal/transport/udp"
)

// epoch anchors the benchmark clock: every due time, publish time and
// delivery time is nanoseconds since it, on Go's monotonic clock — generator
// and subscribers share one clock because they share one process.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// cpuNs is the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// abandonMark is added to an event's remaining-receivers counter when the
// generator gives up on it, so late deliveries can never complete it.
const abandonMark = 1 << 20

// rec is one delivery as a subscriber saw it.
type rec struct {
	ev int32
	at int64
}

// recChunk is how many deliveries a subscriber stores per allocation. Fixed
// chunks make the benchmark's own share of the heap exactly known, so it can
// be left out of heap_mb_per_node.
const recChunk = 1 << 15

// snapshot is the fleet's cumulative counters at one instant.
type snapshot struct {
	t         int64
	cpu       int64
	delivered int64
	completed int64
	msgs      int64 // datagrams (UDP) or envelopes (in-memory) sent
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	spec       phaseSpec
	start, end int64 // schedule start and end (the drain follows end)
	first, lim int   // event sequence range [first, lim)
	windows    []snapshot
	abandoned  int
}

// liveRun is one pass of a live workload over one fleet.
type liveRun struct {
	cfg *config
	w   *workloadSpec
	in  *inputs
	f   *fleet
	tr  *tracer // nil on the untraced pass

	// Event table, indexed by global sequence number. The generator writes
	// an entry, then advances published; subscribers load published before
	// reading an entry.
	due       []int64
	topic     []int32
	phaseOf   []int8
	elig      []uint64
	remaining []atomic.Int32
	published atomic.Int32

	delivered   atomic.Int64
	completed   atomic.Int64
	outstanding atomic.Int64
	wake        chan struct{} // cap 1: a completion happened

	hist     []subHistory
	recs     [][][]rec    // per node: chunks of deliveries, in arrival order
	recBytes atomic.Int64 // bytes allocated for recs
	bogus    []int        // per node: deliveries without a usable sequence stamp
	colWG    sync.WaitGroup
	fluxWG   sync.WaitGroup
	stopCh   chan struct{}

	layersOnly bool // a pass of the traced run: no closed loop

	probes [2]probe // the nominal phase's start and end
	heapMB float64  // live heap per node when the nominal phase ended

	waited int64 // ns spent draining and tearing down: waits on deadlines

	gen    genLog  // the generators' merged observations
	fluxAt []int64 // per flux op: when Subscribe was called
}

// segment is what one fleet measured, before the run's fleets are merged.
// A run hosts several fleets one after the other: how much CPU a fleet burns
// for the same traffic settles when it starts — which processor its timers
// and sockets land on, how often a tick wakes an idle one — and then holds
// for the fleet's life, differing by ±15 % from one fleet to the next. One
// fleet per run would report that draw; several average it out.
type segment struct {
	meanWin, p99Win []float64 // per nominal window: mean and p99 latency, ms
	lats            []float64 // every nominal operation's latency, ms
	idleWin         []float64 // per idle window: CPU ms per node per second

	cpuNs, deliveries, msgs int64 // over the nominal phase's whole windows
	nominalSecs             float64
	nominalEvents           int
	completed               int64 // over the closed loop's whole windows
	windowSecs              float64

	attemptedNominal, deliveredNominal int
	attempted, failed                  int
	failedLate                         int // failed operations whose delivery came, but after the deadline
	voided                             int // undelivered pairs dropped: the node redrew before the deadline
	abandoned                          int
	heapMB                             float64

	late, calls []float64 // generator lateness ms, Publish call duration us
	lagMaxMs    float64
	fluxMs      []float64
	counts      probe // the program's counters' movement over the nominal phase
	problems    []string
}

// liveResult carries a pass's merged measurements to reporting.
type liveResult struct {
	metrics    map[string]float64 // end-to-end metrics by name
	samples    map[string]int     // sample counts behind the figures
	extra      map[string]float64 // side figures (printed, and per-layer rows when traced)
	attempted  int
	failed     int
	problems   []string // output checks that failed
	valid      bool     // generator kept its schedule
	sha        string
	counts     probe // per-layer counters' movement, summed over fleets
	nominalCPU int64 // process CPU over the nominal phases
}

func newLiveRun(cfg *config, w *workloadSpec, in *inputs, f *fleet, tr *tracer, phaseDur []float64) *liveRun {
	nodes := len(f.nodes)
	capacity := eventCapacity(cfg, w, phaseDur)
	r := &liveRun{
		cfg: cfg, w: w, in: in, f: f, tr: tr,
		due:       make([]int64, capacity),
		topic:     make([]int32, capacity),
		phaseOf:   make([]int8, capacity),
		elig:      make([]uint64, capacity),
		remaining: make([]atomic.Int32, capacity),
		wake:      make(chan struct{}, 1),
		hist:      make([]subHistory, nodes),
		recs:      make([][][]rec, nodes),
		bogus:     make([]int, nodes),
		stopCh:    make(chan struct{}),
	}
	return r
}

// eligMask is the set of eligible receivers of an event on topic due at due.
func (r *liveRun) eligMask(topic int, due int64) uint64 {
	before, after := int64(r.cfg.eligibleBefore()), int64(r.cfg.eligibleAfter())
	var m uint64
	for i := range r.hist {
		if r.hist[i].eligible(topic, due, before, after) {
			m |= 1 << uint(i)
		}
	}
	return m
}

// collect is one subscriber: it drains a node's delivery channel, stamps
// each delivery on the benchmark clock and completes events.
func (r *liveRun) collect(i int) {
	defer r.colWG.Done()
	bit := uint64(1) << uint(i)
	var cur []rec
	for ev := range r.f.nodes[i].Deliveries() {
		at := nowNs()
		r.delivered.Add(1)
		n, ok := ev.Attr("n").AsInt()
		if !ok || n < 0 || n >= int64(r.published.Load()) {
			r.bogus[i]++
			continue
		}
		if len(cur) == cap(cur) {
			if cur != nil {
				r.recs[i] = append(r.recs[i], cur)
			}
			cur = make([]rec, 0, recChunk)
			r.recBytes.Add(recChunk * 16)
		}
		cur = append(cur, rec{ev: int32(n), at: at})
		if r.elig[n]&bit != 0 && r.remaining[n].Add(-1) == 0 {
			r.completed.Add(1)
			r.outstanding.Add(-1)
			select {
			case r.wake <- struct{}{}:
			default:
			}
		}
	}
	r.recs[i] = append(r.recs[i], cur)
}

// enter writes an event's table entry and returns its sequence number. Only
// one goroutine enters events at a time.
func (r *liveRun) enter(e *eventSpec, due int64, phase int) int {
	seq := int(r.published.Load())
	if seq >= len(r.due) {
		return -1
	}
	mask := r.eligMask(e.Topic, due)
	r.due[seq], r.topic[seq], r.phaseOf[seq], r.elig[seq] = due, int32(e.Topic), int8(phase), mask
	pop := bits.OnesCount64(mask)
	r.remaining[seq].Store(int32(pop))
	if pop > 0 {
		r.outstanding.Add(1)
	} else {
		r.completed.Add(1) // nobody to reach: complete by definition
	}
	r.published.Store(int32(seq + 1))
	return seq
}

// genLog is what one generator goroutine observed of its own calls.
type genLog struct {
	late   []int64 // open loop: Publish call time − due
	calls  []int64 // Publish call duration
	lagMax int64   // max Publish return time − due
	errors int
}

// publish sends one entered event.
func (r *liveRun) publish(g *genLog, e *eventSpec, seq int, due int64, openLoop bool) {
	if seq < 0 {
		g.errors++
		return
	}
	attrs := e.attrs(seq, due)
	sp := -1
	if r.tr != nil {
		sp = r.tr.begin(spanPublish, seq)
	}
	t0 := nowNs()
	_, err := r.f.nodes[e.Publisher].Publish(attrs)
	t1 := nowNs()
	if r.tr != nil {
		r.tr.end(sp, t1, 1)
	}
	if err != nil {
		g.errors++
	}
	if openLoop {
		g.late = append(g.late, t0-due)
	}
	if lag := t1 - due; lag > g.lagMax {
		g.lagMax = lag
	}
	g.calls = append(g.calls, t1-t0)
}

func (g *genLog) merge(o *genLog) {
	g.late, g.calls = append(g.late, o.late...), append(g.calls, o.calls...)
	g.errors += o.errors
	if o.lagMax > g.lagMax {
		g.lagMax = o.lagMax
	}
}

// abandon gives up on an event that missed its deadline.
func (r *liveRun) abandon(seq int) bool {
	for {
		v := r.remaining[seq].Load()
		if v <= 0 || v >= abandonMark {
			return false
		}
		if r.remaining[seq].CompareAndSwap(v, v+abandonMark) {
			r.outstanding.Add(-1)
			return true
		}
	}
}

func (r *liveRun) snap() snapshot {
	s := snapshot{t: nowNs(), cpu: cpuNs(), delivered: r.delivered.Load(), completed: r.completed.Load()}
	if r.f.udp != nil {
		s.msgs = r.f.udp.Stats().SentDatagrams
	} else {
		for _, n := range r.f.nodes {
			env, _ := n.WireStats()
			s.msgs += env
		}
	}
	return s
}

// sampleWindows snapshots the counters at every window boundary of a phase.
func (r *liveRun) sampleWindows(start, end int64, out *[]snapshot, done chan<- struct{}) {
	defer close(done)
	width := int64(r.cfg.WindowS * 1e9)
	*out = append(*out, r.snap())
	for b := start + width; b <= end; b += width {
		if d := b - nowNs(); d > 0 {
			select {
			case <-time.After(time.Duration(d)):
			case <-r.stopCh:
				return
			}
		}
		*out = append(*out, r.snap())
	}
}

func sleepUntil(t int64) {
	for {
		d := t - nowNs()
		if d <= 0 {
			return
		}
		time.Sleep(time.Duration(d))
	}
}

// drain waits until every event of the phase completed or the last one has
// been out for limit, then abandons the stragglers.
func (r *liveRun) drain(pr *phaseResult, limit time.Duration) {
	deadline := pr.end + int64(limit)
	if pr.lim > pr.first {
		deadline = r.due[pr.lim-1] + int64(limit)
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for r.outstanding.Load() > 0 {
		d := deadline - nowNs()
		if d <= 0 {
			break
		}
		timer.Reset(time.Duration(d))
		select {
		case <-r.wake:
		case <-timer.C:
		}
	}
	for seq := pr.first; seq < pr.lim; seq++ {
		if r.abandon(seq) {
			pr.abandoned++
		}
	}
}

// runPhase executes one phase: idle, open loop, or closed loop.
func (r *liveRun) runPhase(pi int, spec phaseSpec, evs []eventSpec, dur float64) phaseResult {
	pr := phaseResult{spec: spec, first: int(r.published.Load())}
	pr.start = nowNs()
	pr.end = pr.start + int64(dur*1e9)
	sampled := make(chan struct{})
	go r.sampleWindows(pr.start, pr.end, &pr.windows, sampled)
	switch {
	case spec.RateEPS > 0:
		// The schedule is known, so every event is entered up front and the
		// generator goroutines only publish: two of them when no flux
		// goroutine runs, each taking every other event, so that one Publish
		// call held up by a busy node delays half as many events behind it.
		seqs := make([]int, len(evs))
		for i := range evs {
			seqs[i] = r.enter(&evs[i], pr.start+evs[i].Due, pi)
		}
		gens := 2
		if len(r.in.Flux) > 0 {
			gens = 1
		}
		logs := make([]genLog, gens)
		var wg sync.WaitGroup
		for g := 0; g < gens; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(evs); i += gens {
					due := pr.start + evs[i].Due
					sleepUntil(due)
					r.publish(&logs[g], &evs[i], seqs[i], due, true)
				}
			}(g)
		}
		wg.Wait()
		for g := range logs {
			r.gen.merge(&logs[g])
		}
		sleepUntil(pr.end)
	case spec.Window > 0:
		timer := time.NewTimer(time.Hour)
		head, next := pr.first, 0
		for {
			now := nowNs()
			if now >= pr.end {
				break
			}
			if int(r.outstanding.Load()) < spec.Window {
				e := &evs[next%len(evs)]
				r.publish(&r.gen, e, r.enter(e, now, pi), now, false)
				next++
				continue
			}
			lim := int(r.published.Load())
			for head < lim {
				if v := r.remaining[head].Load(); v > 0 && v < abandonMark {
					break
				}
				head++
			}
			if head == lim {
				runtime.Gosched() // a completion is being recorded right now
				continue
			}
			wait := r.due[head] + int64(r.cfg.deadline()) - now
			if wait <= 0 {
				if r.abandon(head) {
					pr.abandoned++
				}
				continue
			}
			if rest := pr.end - now; wait > rest {
				wait = rest
			}
			timer.Reset(time.Duration(wait))
			select {
			case <-r.wake:
			case <-timer.C:
			}
		}
		timer.Stop()
	default:
		sleepUntil(pr.end)
	}
	<-sampled
	pr.lim = int(r.published.Load())
	limit := r.cfg.deadline()
	if pi < 0 {
		// Warm-up operations are not measured; give the last ones time to
		// land, not their full deadline.
		limit = time.Duration(r.cfg.WarmupDrainMs) * time.Millisecond
	}
	t0 := nowNs()
	r.drain(&pr, limit)
	r.waited += nowNs() - t0
	return pr
}

// runFlux issues the scheduled Subscribe calls: the second (and last)
// generator goroutine.
func (r *liveRun) runFlux(t0 int64, subs []interest.Subscription) {
	defer r.fluxWG.Done()
	for k, op := range r.in.Flux {
		if d := t0 + op.At - nowNs(); d > 0 {
			select {
			case <-time.After(time.Duration(d)):
			case <-r.stopCh:
				return
			}
		}
		select {
		case <-r.stopCh:
			return
		default:
		}
		r.fluxAt = append(r.fluxAt, nowNs())
		r.f.nodes[op.Node].Subscribe(subs[k])
	}
}

// run drives warm-up and every phase on this fleet, then analyses the
// deliveries.
func (r *liveRun) run(phaseDur []float64) *segment {
	nodes := len(r.f.nodes)
	t0 := nowNs()
	for i := range r.hist {
		r.hist[i] = subHistory{times: []int64{math.MinInt64}, sets: []topicSet{r.in.Subs[i]}}
	}
	fluxSubs := make([]interest.Subscription, len(r.in.Flux))
	for k, op := range r.in.Flux {
		h := &r.hist[op.Node]
		h.times = append(h.times, t0+op.At)
		h.sets = append(h.sets, op.Set)
		fluxSubs[k] = op.Set.subscription()
	}
	r.colWG.Add(nodes)
	for i := 0; i < nodes; i++ {
		go r.collect(i)
	}
	if len(r.in.Flux) > 0 {
		r.fluxWG.Add(1)
		go r.runFlux(t0, fluxSubs)
	}
	var depthDone chan struct{}
	if r.tr != nil {
		depthDone = make(chan struct{})
		go r.tr.sampleDepths(r.f, time.Duration(r.cfg.DepthSampleMs)*time.Millisecond, r.stopCh, depthDone)
	}

	r.runPhase(-1, phaseSpec{Name: "warmup", RateEPS: r.w.nominalRate()}, r.in.Warmup, r.cfg.WarmupS)
	r.gen = genLog{errors: r.gen.errors}

	phases := make([]phaseResult, 0, len(r.w.Phases))
	for pi, spec := range r.w.Phases {
		if (spec.TracedOnly && !r.layersOnly) || (spec.Window > 0 && r.layersOnly) {
			phases = append(phases, phaseResult{spec: spec})
			continue
		}
		if spec.RateEPS > 0 {
			r.probes[0] = r.probe()
			if r.tr != nil {
				r.tr.markNominal(true)
			}
		}
		pr := r.runPhase(pi, spec, r.in.Phases[pi], phaseDur[pi])
		if spec.RateEPS > 0 {
			if r.tr != nil {
				r.tr.markNominal(false)
			}
			r.probes[1] = r.probe()
			r.heapMB = r.heapPerNode()
		}
		phases = append(phases, pr)
	}
	close(r.stopCh)
	r.fluxWG.Wait()
	if depthDone != nil {
		<-depthDone
	}
	return r.analyse(phases)
}

// probe is the program's own counters at one instant: the loss counters that
// must not move during the nominal phase, and — for the traced pass — the
// per-layer counts the accessors already keep.
type probe struct {
	malformed, dropped, egressDropped, droppedDeliveries int64

	udp        udp.Stats
	match      core.MatchStats
	rt         runtimeProbe
	memDropped int
	heap       int64 // live heap after a forced collection (passes of the traced run only)
}

// minus is the counters' movement since o; plus sums two movements.
func (p probe) minus(o probe) probe {
	d := probe{
		malformed: p.malformed - o.malformed, dropped: p.dropped - o.dropped,
		egressDropped: p.egressDropped - o.egressDropped, droppedDeliveries: p.droppedDeliveries - o.droppedDeliveries,
		memDropped: p.memDropped - o.memDropped, heap: p.heap - o.heap,
	}
	d.udp.SentDatagrams, d.udp.RecvDatagrams = p.udp.SentDatagrams-o.udp.SentDatagrams, p.udp.RecvDatagrams-o.udp.RecvDatagrams
	d.udp.SendSyscalls, d.udp.RecvSyscalls = p.udp.SendSyscalls-o.udp.SendSyscalls, p.udp.RecvSyscalls-o.udp.RecvSyscalls
	d.match.Evals, d.match.Comparisons = p.match.Evals-o.match.Evals, p.match.Comparisons-o.match.Comparisons
	d.match.Hits, d.match.Misses = p.match.Hits-o.match.Hits, p.match.Misses-o.match.Misses
	d.match.FoldRecomputes, d.match.FoldHits = p.match.FoldRecomputes-o.match.FoldRecomputes, p.match.FoldHits-o.match.FoldHits
	d.match.CompilerEntries, d.match.CompilerEvictions = p.match.CompilerEntries, p.match.CompilerEvictions
	d.rt = runtimeProbe{gcCPU: p.rt.gcCPU - o.rt.gcCPU, allocObjs: p.rt.allocObjs - o.rt.allocObjs, allocBytes: p.rt.allocBytes - o.rt.allocBytes}
	return d
}

func (p probe) plus(o probe) probe {
	p.malformed, p.dropped = p.malformed+o.malformed, p.dropped+o.dropped
	p.egressDropped, p.droppedDeliveries = p.egressDropped+o.egressDropped, p.droppedDeliveries+o.droppedDeliveries
	p.memDropped, p.heap = p.memDropped+o.memDropped, p.heap+o.heap
	p.udp.SentDatagrams, p.udp.RecvDatagrams = p.udp.SentDatagrams+o.udp.SentDatagrams, p.udp.RecvDatagrams+o.udp.RecvDatagrams
	p.udp.SendSyscalls, p.udp.RecvSyscalls = p.udp.SendSyscalls+o.udp.SendSyscalls, p.udp.RecvSyscalls+o.udp.RecvSyscalls
	p.match.Accumulate(o.match)
	p.rt = runtimeProbe{gcCPU: p.rt.gcCPU + o.rt.gcCPU, allocObjs: p.rt.allocObjs + o.rt.allocObjs, allocBytes: p.rt.allocBytes + o.rt.allocBytes}
	return p
}

func (r *liveRun) probe() probe {
	var p probe
	if r.f.udp != nil {
		p.udp = r.f.udp.Stats()
		p.malformed, p.dropped = p.udp.Malformed, p.udp.Dropped
	}
	if r.f.mem != nil {
		p.memDropped = r.f.mem.Dropped()
	}
	for _, n := range r.f.nodes {
		ed, mal := n.EngineStats()
		p.egressDropped += ed
		p.malformed += mal
		p.droppedDeliveries += n.DroppedDeliveries()
	}
	if r.layersOnly {
		// Both passes of a traced run take the heap probe, forced collection
		// and all, so that they differ by the tracer alone.
		for _, n := range r.f.nodes {
			p.match.Accumulate(n.MatchStats())
		}
		p.rt = readRuntime()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p.heap = int64(ms.HeapAlloc)
	}
	return p
}

// finish stops the subscribers' source (the fleet) and waits for them.
// Deliveries are final only after it returns.
func (r *liveRun) finish() {
	t0 := nowNs()
	r.f.stop()
	r.colWG.Wait()
	r.waited += nowNs() - t0
}

// analyse runs the output checks over every delivery and reduces the fleet's
// raw records to a segment.
func (r *liveRun) analyse(phases []phaseResult) *segment {
	seg := &segment{heapMB: r.heapMB, lagMaxMs: float64(r.gen.lagMax) / 1e6}
	problem := func(format string, args ...any) {
		if len(seg.problems) < 20 {
			seg.problems = append(seg.problems, fmt.Sprintf(format, args...))
		}
	}
	nodes := len(r.f.nodes)
	published := int(r.published.Load())
	deadline := int64(r.cfg.deadline())
	grace := int64(r.cfg.eligibleBefore())

	// Every timed event either completed or was abandoned, so what is still
	// in flight can only be a late duplicate or a delivery to a non-eligible
	// node; stopping the fleet flushes those to the subscribers too.
	r.finish()

	type opLat struct {
		due int64
		lat float64 // ms
	}
	var nominalLats []opLat
	nominalPhase := -1
	for pi, pr := range phases {
		if pr.spec.RateEPS > 0 && len(pr.windows) > 0 {
			nominalPhase = pi
		}
	}
	// What a node was subscribed to when is judged by when Subscribe was
	// called, not when it was scheduled: a stalled host delays the call.
	actual := r.actualHistory()
	got := make([]uint64, published) // per event: eligible nodes that delivered in time
	for i := 0; i < nodes; i++ {
		if r.bogus[i] > 0 {
			problem("node %d delivered %d events that were never published", i, r.bogus[i])
		}
		seen := make([]uint64, (published+63)/64)
		bit := uint64(1) << uint(i)
		for _, chunk := range r.recs[i] {
			for _, rc := range chunk {
				if seen[rc.ev>>6]&(1<<(uint(rc.ev)&63)) != 0 {
					problem("node %d delivered event %d twice", i, rc.ev)
					continue
				}
				seen[rc.ev>>6] |= 1 << (uint(rc.ev) & 63)
				if !actual[i].matchedWithin(int(r.topic[rc.ev]), rc.at-grace, rc.at) {
					problem("node %d delivered event %d (topic %d) it never subscribed to", i, rc.ev, r.topic[rc.ev])
					continue
				}
				ph := int(r.phaseOf[rc.ev])
				if ph < 0 || r.elig[rc.ev]&bit == 0 {
					continue
				}
				lat := rc.at - r.due[rc.ev]
				if lat > deadline {
					seg.failedLate++ // too late: the operation failed
					continue
				}
				got[rc.ev] |= bit
				if ph == nominalPhase {
					nominalLats = append(nominalLats, opLat{due: r.due[rc.ev], lat: float64(lat) / 1e6})
				}
			}
		}
	}
	r.fluxStats(seg)
	r.recs = nil

	// An operation that was not delivered has failed only if the node really
	// held its matching subscription from the grace before the due time to the
	// deadline. A node that redrew its interests before the event reached it
	// is owed nothing: that pair is no operation.
	for seq := 0; seq < published; seq++ {
		ph := int(r.phaseOf[seq])
		if ph < 0 {
			continue
		}
		for m := r.elig[seq] &^ got[seq]; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if !actual[i].eligible(int(r.topic[seq]), r.due[seq], grace, deadline) {
				r.elig[seq] &^= 1 << uint(i)
				seg.voided++
			}
		}
		att, del := bits.OnesCount64(r.elig[seq]), bits.OnesCount64(got[seq])
		seg.attempted += att
		seg.failed += att - del
		if ph == nominalPhase {
			seg.attemptedNominal += att
			seg.deliveredNominal += del
		}
	}

	width := int64(r.cfg.WindowS * 1e9)
	for _, pr := range phases {
		ws := pr.windows
		full := int((pr.end - pr.start) / width)
		if len(ws) == 0 || full < 1 || full >= len(ws) {
			continue // a phase this pass skipped
		}
		seg.abandoned += pr.abandoned
		a, b := ws[0], ws[full]
		switch {
		case pr.spec.RateEPS > 0:
			ls := nominalLats
			due := func(i int) int64 { return ls[i].due }
			lat := func(i int) float64 { return ls[i].lat }
			seg.meanWin = windowed(full, pr.start, width, len(ls), due, lat, func(s []float64) float64 {
				sum := 0.0
				for _, v := range s {
					sum += v
				}
				return sum / float64(len(s))
			})
			seg.p99Win = windowed(full, pr.start, width, len(ls), due, lat, func(s []float64) float64 { return percentile(s, 0.99) })
			seg.lats = make([]float64, len(ls))
			for i := range ls {
				seg.lats[i] = ls[i].lat
			}
			// Cost figures are totals over the whole windows: CPU per delivery
			// is steady within a fleet, and the total uses every delivery.
			seg.cpuNs, seg.deliveries, seg.msgs = b.cpu-a.cpu, b.delivered-a.delivered, b.msgs-a.msgs
			seg.nominalSecs = float64(b.t-a.t) / 1e9
			seg.nominalEvents = pr.lim - pr.first
		case pr.spec.Window > 0:
			seg.completed, seg.windowSecs = b.completed-a.completed, float64(b.t-a.t)/1e9
		default:
			for k := 1; k <= full; k++ {
				seg.idleWin = append(seg.idleWin, float64(ws[k].cpu-ws[k-1].cpu)/1e6/float64(nodes)/(float64(ws[k].t-ws[k-1].t)/1e9))
			}
		}
	}

	for _, v := range r.gen.late {
		seg.late = append(seg.late, float64(v)/1e6)
	}
	for _, v := range r.gen.calls {
		seg.calls = append(seg.calls, float64(v)/1e3)
	}
	seg.counts = r.probes[1].minus(r.probes[0])
	if l := seg.counts; l.malformed != 0 || l.dropped != 0 || l.egressDropped != 0 || l.droppedDeliveries != 0 {
		problem("nominal phase lost frames in the datapath: malformed %d, inbox-dropped %d, egress-dropped %d, delivery-dropped %d",
			l.malformed, l.dropped, l.egressDropped, l.droppedDeliveries)
	}
	if r.gen.errors > 0 {
		problem("%d Publish calls failed", r.gen.errors)
	}
	return seg
}

// mergeSegments reduces a run's fleets to its figures.
func mergeSegments(cfg *config, w *workloadSpec, segs []*segment, sha string) *liveResult {
	res := &liveResult{metrics: map[string]float64{}, samples: map[string]int{}, extra: map[string]float64{}, sha: sha}
	var meanWin, p99Win, lats, idleWin, late, calls, fluxMs, heaps []float64
	var cpuNs, deliveries, msgs, completed int64
	var nominalSecs, windowSecs, lagMax float64
	var events, attemptedNominal, deliveredNominal, abandoned, failedLate, voided int
	for _, s := range segs {
		meanWin, p99Win, lats = append(meanWin, s.meanWin...), append(p99Win, s.p99Win...), append(lats, s.lats...)
		idleWin, late, calls, fluxMs = append(idleWin, s.idleWin...), append(late, s.late...), append(calls, s.calls...), append(fluxMs, s.fluxMs...)
		heaps = append(heaps, s.heapMB)
		cpuNs, deliveries, msgs, completed = cpuNs+s.cpuNs, deliveries+s.deliveries, msgs+s.msgs, completed+s.completed
		nominalSecs, windowSecs = nominalSecs+s.nominalSecs, windowSecs+s.windowSecs
		events, abandoned, failedLate = events+s.nominalEvents, abandoned+s.abandoned, failedLate+s.failedLate
		voided += s.voided
		attemptedNominal, deliveredNominal = attemptedNominal+s.attemptedNominal, deliveredNominal+s.deliveredNominal
		res.attempted, res.failed = res.attempted+s.attempted, res.failed+s.failed
		res.problems = append(res.problems, s.problems...)
		res.counts = res.counts.plus(s.counts)
		if s.lagMaxMs > lagMax {
			lagMax = s.lagMaxMs
		}
	}
	// Latency: the median over every fleet's nominal windows of the
	// per-window figure, which keeps one stalled half-second from deciding a
	// run. Cost and capacity: totals over all fleets.
	res.metrics["deliver_mean_ms"], res.samples["deliver_mean_ms"] = median(meanWin), len(lats)
	res.metrics["deliver_p99_ms"], res.samples["deliver_p99_ms"] = median(p99Win), len(lats)
	if deliveries > 0 {
		res.metrics["cpu_us_per_delivery"], res.samples["cpu_us_per_delivery"] = float64(cpuNs)/1e3/float64(deliveries), int(deliveries)
		res.metrics["msgs_per_delivery"], res.samples["msgs_per_delivery"] = float64(msgs)/float64(deliveries), int(deliveries)
	}
	if windowSecs > 0 {
		res.metrics["capacity_eps"], res.samples["capacity_eps"] = float64(completed)/windowSecs, int(completed)
	}
	if attemptedNominal > 0 {
		res.metrics["delivery_ratio"], res.samples["delivery_ratio"] = float64(deliveredNominal)/float64(attemptedNominal), attemptedNominal
	}
	res.metrics["heap_mb_per_node"], res.samples["heap_mb_per_node"] = median(heaps), len(heaps)
	res.nominalCPU = cpuNs

	sort.Float64s(lats)
	sort.Float64s(late)
	sort.Float64s(calls)
	res.extra["node.deliver_p50_ms"] = percentile(lats, 0.50)
	res.extra["node.deliver_p99_ms"] = percentile(lats, 0.99)
	res.extra["deliver_max_ms"] = percentile(lats, 1)
	res.extra["node.idle_cpu_ms_per_node_s"] = median(idleWin)
	res.extra["nominal.deliveries"] = float64(deliveries)
	res.extra["nominal.events"] = float64(events)
	res.extra["nominal.seconds"] = nominalSecs
	if nominalSecs > 0 {
		res.extra["nominal.cpu_cores"] = float64(cpuNs) / 1e9 / nominalSecs
	}
	res.extra["abandoned_events"] = float64(abandoned)
	res.extra["failed_late_ops"] = float64(failedLate)
	res.extra["voided_ops"] = float64(voided)
	res.extra["gen_late_p99_ms"] = percentile(late, 0.99)
	res.extra["gen_lag_max_ms"] = lagMax
	res.valid = res.extra["gen_late_p99_ms"] <= cfg.GenLateLimitMs
	res.extra["node.publish_call_us_p50"] = percentile(calls, 0.50)
	res.extra["node.publish_call_us_p99"] = percentile(calls, 0.99)
	res.extra["membership.flux_effective_p50_ms"], res.samples["membership.flux_effective_p50_ms"] = median(fluxMs), len(fluxMs)
	res.extra["transport.udp.malformed"] = float64(res.counts.malformed)
	res.extra["transport.udp.dropped"] = float64(res.counts.dropped)
	res.extra["node.egress_dropped"] = float64(res.counts.egressDropped)
	res.extra["node.dropped_deliveries"] = float64(res.counts.droppedDeliveries)
	if ratio, ok := res.metrics["delivery_ratio"]; !ok || ratio < w.MinDeliveryRatio {
		res.problems = append(res.problems, fmt.Sprintf("delivery_ratio %.4f below the workload's floor %.4f", ratio, w.MinDeliveryRatio))
	}
	return res
}

// actualHistory is every node's subscription history as it happened: the
// initial set, then each redraw at the time its Subscribe call was made.
// (r.hist holds the schedule, which is all the generator can know up front.)
func (r *liveRun) actualHistory() []subHistory {
	h := make([]subHistory, len(r.hist))
	for i := range h {
		h[i] = subHistory{times: []int64{math.MinInt64}, sets: []topicSet{r.in.Subs[i]}}
	}
	for k, at := range r.fluxAt {
		op := r.in.Flux[k]
		h[op.Node].times = append(h[op.Node].times, at)
		h[op.Node].sets = append(h[op.Node].sets, op.Set)
	}
	return h
}

// heapPerNode is live heap per node after a forced collection, taken when
// the nominal phase has drained — a fixed number of events into the run, so
// the figure does not ride on how many events the closed loop went on to
// push. The delivery records and the event table are the benchmark's own and
// are left out.
func (r *liveRun) heapPerNode() float64 {
	var own uint64
	for _, n := range []int{cap(r.due) * 8, cap(r.topic) * 4, cap(r.phaseOf), cap(r.elig) * 8, cap(r.remaining) * 4} {
		own += uint64(n)
	}
	own += uint64(r.recBytes.Load())
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := ms.HeapAlloc
	if heap > own {
		heap -= own
	}
	return float64(heap) / float64(len(r.f.nodes)) / (1 << 20)
}

// fluxStats measures how long a redrawn subscription takes to become
// effective: from the Subscribe call to the first delivery of an event the
// node's previous subscription did not match.
func (r *liveRun) fluxStats(seg *segment) {
	for k, at := range r.fluxAt {
		op := r.in.Flux[k]
		h := &r.hist[op.Node]
		prev := h.sets[h.at(at-1e6)] // the set the redraw replaced
	first:
		for _, chunk := range r.recs[op.Node] {
			for _, rc := range chunk {
				t := int(r.topic[rc.ev])
				if rc.at >= at && r.due[rc.ev] >= at && op.Set.has(t) && !prev.has(t) {
					seg.fluxMs = append(seg.fluxMs, float64(rc.at-at)/1e6)
					break first
				}
			}
		}
	}
}
