package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/membership"
	"pmcast/internal/transport"
	"pmcast/internal/wire"
)

// The tracer measures layers from outside: it wraps the fabric the nodes
// attach to and records a span around every call they make into it, beside
// the spans the benchmark records around Publish and Scenario.Run. Spans
// stay in memory until the run ends. Spans inside the program are a later
// change; until then a layer's cost is its spans here plus the replay of the
// captured traffic through its public functions (layers.go).

const (
	spanPublish  = "node.Publish"
	spanSend     = "transport.Send"
	spanSendMany = "transport.SendMany"
	spanRecvMany = "transport.RecvMany"
	spanRun      = "harness.Scenario.Run"
)

// reservoirSize bounds the sample of real traffic kept for replay.
const reservoirSize = 4096

// inboundCap bounds the in-order capture of one node's inbound traffic.
const inboundCap = 1 << 15

// payloadCounts tallies what crossed the fabric, by message kind.
type payloadCounts struct {
	envelopes  int64 // Send-equivalents (a batch envelope is one)
	gossips    int64
	digests    int64
	updates    int64
	heartbeats int64
	other      int64
	sendNs     int64 // wall time inside Send/SendMany
	recvCalls  int64
	recvMsgs   int64
}

func (c *payloadCounts) add(o payloadCounts) {
	c.envelopes += o.envelopes
	c.gossips += o.gossips
	c.digests += o.digests
	c.updates += o.updates
	c.heartbeats += o.heartbeats
	c.other += o.other
	c.sendNs += o.sendNs
	c.recvCalls += o.recvCalls
	c.recvMsgs += o.recvMsgs
}

// spanLog is one goroutine group's span buffer: the tracer's own (Publish,
// Scenario.Run) and one per traced endpoint, so recording a span never takes
// a lock the whole fleet shares.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

type tracer struct {
	mu     sync.Mutex
	own    spanLog
	nextID atomic.Int32
	// publishSpan maps an event sequence number to its Publish span (id+1),
	// the parent of every send that carries the event alone.
	publishSpan []atomic.Int32

	nominal atomic.Bool // counts and captures only cover the nominal phase

	// endpoints is every endpoint attached so far; those from liveFrom on
	// belong to the fleet now running, fleet counts the fleets begun.
	endpoints []*traceEndpoint
	liveFrom  int
	fleet     atomic.Int32

	// Captures (nominal phase only): a uniform reservoir of sent payloads,
	// and the in-order stream addressed to one node, for the step-mode twin.
	capMu       sync.Mutex
	seenSends   int64
	reservoir   []any
	rngState    uint64
	target      addr.Address
	inbound     []transport.Envelope
	inboundSeen int64 // envelopes addressed to target, captured or not

	depthMu     sync.Mutex
	inboxDepth  []float64
	deliverDept []float64
}

func newTracer(maxEvents int, target addr.Address) *tracer {
	t := &tracer{
		publishSpan: make([]atomic.Int32, maxEvents),
		rngState:    0x9e3779b97f4a7c15,
		target:      target,
	}
	return t
}

// open starts a span in a log and returns its index there. The start time is
// read last, so the tracer's own bookkeeping stays outside the span.
func (t *tracer) open(l *spanLog, name string, seq int) int {
	parent := int32(-1)
	if name != spanPublish && seq >= 0 && seq < len(t.publishSpan) {
		parent = t.publishSpan[seq].Load() - 1
	}
	id := t.nextID.Add(1) - 1
	if name == spanPublish && seq >= 0 && seq < len(t.publishSpan) {
		t.publishSpan[seq].Store(id + 1)
	}
	l.mu.Lock()
	i := len(l.spans)
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Seq: int32(seq), Nominal: t.nominal.Load()})
	l.spans[i].Start = nowNs()
	l.mu.Unlock()
	return i
}

// begin opens one of the benchmark's own spans (Publish, Scenario.Run).
func (t *tracer) begin(name string, seq int) int { return t.open(&t.own, name, seq) }

// end closes one of the benchmark's own spans; n is how many messages the
// call carried.
func (t *tracer) end(i int, end int64, n int) {
	t.own.mu.Lock()
	t.own.spans[i].End, t.own.spans[i].N = end, int32(n)
	t.own.mu.Unlock()
}

func (t *tracer) markNominal(on bool) { t.nominal.Store(on) }

// nextFleet tells the tracer the endpoints attached from now on belong to a
// new fleet.
func (t *tracer) nextFleet() {
	t.mu.Lock()
	t.liveFrom = len(t.endpoints)
	t.mu.Unlock()
	t.fleet.Add(1)
}

// wrap interposes the tracer on a fabric.
func (t *tracer) wrap(inner transport.Transport) transport.Transport {
	return &traceTransport{inner: inner, t: t}
}

type traceTransport struct {
	inner transport.Transport
	t     *tracer
}

func (tt *traceTransport) Attach(a addr.Address) (transport.Endpoint, error) {
	ep, err := tt.inner.Attach(a)
	if err != nil {
		return nil, err
	}
	te := &traceEndpoint{Endpoint: ep, t: tt.t}
	te.bs, _ = ep.(transport.BatchSender)
	te.br, _ = ep.(transport.BatchReceiver)
	tt.t.mu.Lock()
	tt.t.endpoints = append(tt.t.endpoints, te)
	tt.t.mu.Unlock()
	return te, nil
}

func (tt *traceTransport) Close() error { return tt.inner.Close() }

// traceEndpoint records spans and counts around one endpoint. Addr, Recv and
// Close pass straight through (the embedded Endpoint).
type traceEndpoint struct {
	transport.Endpoint
	t  *tracer
	bs transport.BatchSender
	br transport.BatchReceiver

	log    spanLog
	counts payloadCounts // guarded by log.mu
	sends  int           // guarded by log.mu: calls seen, for capture sampling
}

// The node engine type-asserts its endpoint for the batch seams; a wrapper
// that lacked them would silently take the traced run off the kernel-batched
// path the untraced run measures.
var (
	_ transport.BatchSender   = (*traceEndpoint)(nil)
	_ transport.BatchReceiver = (*traceEndpoint)(nil)
)

// seqOf is the event sequence number a payload carries, when it carries
// exactly one event.
func seqOf(payload any) int {
	var g *core.Gossip
	switch m := payload.(type) {
	case core.Gossip:
		g = &m
	case wire.Batch:
		if len(m.Gossips) == 1 {
			g = &m.Gossips[0]
		}
	}
	if g == nil {
		return -1
	}
	if n, ok := g.Event.Attr("n").AsInt(); ok {
		return int(n)
	}
	return -1
}

func (c *payloadCounts) tally(payload any) {
	c.envelopes++
	switch m := payload.(type) {
	case core.Gossip:
		c.gossips++
	case membership.Digest:
		c.digests++
	case membership.Update:
		c.updates++
	case membership.Heartbeat:
		c.heartbeats++
	case wire.Batch:
		c.gossips += int64(len(m.Gossips))
		if m.Digest != nil {
			c.digests++
		}
		if m.Update != nil {
			c.updates++
		}
		if m.Heartbeat != nil {
			c.heartbeats++
		}
	default:
		c.other++
	}
}

// captureEvery is how many of an endpoint's sends pass between two offered
// to the reservoir: sampling before the shared lock keeps the capture off the
// fleet's critical path.
const captureEvery = 8

// capture offers a payload to the uniform reservoir.
func (t *tracer) capture(payload any) {
	t.capMu.Lock()
	t.seenSends++
	if len(t.reservoir) < reservoirSize {
		t.reservoir = append(t.reservoir, payload)
	} else {
		// xorshift: the sample need not be reproducible, only uniform.
		t.rngState ^= t.rngState << 13
		t.rngState ^= t.rngState >> 7
		t.rngState ^= t.rngState << 17
		if j := int64(t.rngState % uint64(t.seenSends)); j < reservoirSize {
			t.reservoir[j] = payload
		}
	}
	t.capMu.Unlock()
}

// captureInbound keeps, in order, what is addressed to the twin's address.
// The stream comes from the first fleet alone: a later fleet reuses event
// IDs, which the twin would take for duplicates.
func (t *tracer) captureInbound(from, to addr.Address, payload any) {
	if t.fleet.Load() != 1 || !to.Equal(t.target) {
		return
	}
	t.capMu.Lock()
	t.inboundSeen++
	if len(t.inbound) < inboundCap {
		t.inbound = append(t.inbound, transport.Envelope{From: from, To: to, Payload: payload})
	}
	t.capMu.Unlock()
}

// sent closes a send span and, during a nominal phase, tallies and samples
// what it carried — one lock for all of it.
func (e *traceEndpoint) sent(i int, end int64, msgs []transport.Outgoing) {
	sample := -1
	e.log.mu.Lock()
	sp := &e.log.spans[i]
	sp.End, sp.N = end, int32(len(msgs))
	if sp.Nominal {
		for k := range msgs {
			e.counts.tally(msgs[k].Payload)
			if e.sends++; e.sends%captureEvery == 0 {
				sample = k
			}
		}
		e.counts.sendNs += end - sp.Start
	}
	nominal := sp.Nominal
	e.log.mu.Unlock()
	if !nominal {
		return
	}
	if sample >= 0 {
		e.t.capture(msgs[sample].Payload)
	}
	for k := range msgs {
		e.t.captureInbound(e.Addr(), msgs[k].To, msgs[k].Payload)
	}
}

func (e *traceEndpoint) Send(to addr.Address, payload any) error {
	i := e.t.open(&e.log, spanSend, seqOf(payload))
	err := e.Endpoint.Send(to, payload)
	e.sent(i, nowNs(), []transport.Outgoing{{To: to, Payload: payload}})
	return err
}

func (e *traceEndpoint) SendMany(msgs []transport.Outgoing) error {
	i := e.t.open(&e.log, spanSendMany, -1)
	var err error
	if e.bs != nil {
		err = e.bs.SendMany(msgs)
	} else {
		for k := range msgs {
			if serr := e.Endpoint.Send(msgs[k].To, msgs[k].Payload); serr != nil && err == nil {
				err = serr
			}
		}
	}
	e.sent(i, nowNs(), msgs)
	return err
}

func (e *traceEndpoint) RecvMany(out []transport.Envelope) (int, bool) {
	start := nowNs()
	var n int
	var alive bool
	if e.br != nil {
		n, alive = e.br.RecvMany(out)
	} else {
		// One blocking receive, then whatever is already queued.
		env, ok := <-e.Endpoint.Recv()
		if !ok {
			return 0, false
		}
		out[0], n, alive = env, 1, true
	fill:
		for n < len(out) {
			select {
			case env, ok := <-e.Endpoint.Recv():
				if !ok {
					alive = false
					break fill
				}
				out[n] = env
				n++
			default:
				break fill
			}
		}
	}
	// Most of a RecvMany is waiting for traffic, which is no layer's cost:
	// the span is recorded for the timeline, its duration is not summed.
	end := nowNs()
	i := e.t.open(&e.log, spanRecvMany, -1)
	e.log.mu.Lock()
	sp := &e.log.spans[i]
	sp.Start, sp.End, sp.N = start, end, int32(n)
	if sp.Nominal {
		e.counts.recvCalls++
		e.counts.recvMsgs += int64(n)
	}
	e.log.mu.Unlock()
	return n, alive
}

// totals sums the per-endpoint counts.
func (t *tracer) totals() payloadCounts {
	var c payloadCounts
	t.mu.Lock()
	eps := t.endpoints
	t.mu.Unlock()
	for _, e := range eps {
		e.log.mu.Lock()
		c.add(e.counts)
		e.log.mu.Unlock()
	}
	return c
}

// sampleDepths records queue depths across the fleet every interval while
// the nominal phase runs.
func (t *tracer) sampleDepths(f *fleet, every time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if !t.nominal.Load() {
			continue
		}
		t.mu.Lock()
		eps := t.endpoints[t.liveFrom:]
		t.mu.Unlock()
		t.depthMu.Lock()
		for _, e := range eps {
			t.inboxDepth = append(t.inboxDepth, float64(len(e.Recv())))
		}
		for _, n := range f.nodes {
			t.deliverDept = append(t.deliverDept, float64(len(n.Deliveries())))
		}
		t.depthMu.Unlock()
	}
}

func (t *tracer) depthP99() (inbox, deliveries float64) {
	t.depthMu.Lock()
	defer t.depthMu.Unlock()
	sort.Float64s(t.inboxDepth)
	sort.Float64s(t.deliverDept)
	return percentile(t.inboxDepth, 0.99), percentile(t.deliverDept, 0.99)
}

// allSpans gathers every log's spans, ordered by id.
func (t *tracer) allSpans() []span {
	t.mu.Lock()
	eps := t.endpoints
	t.mu.Unlock()
	logs := []*spanLog{&t.own}
	for _, e := range eps {
		logs = append(logs, &e.log)
	}
	var all []span
	for _, l := range logs {
		l.mu.Lock()
		all = append(all, l.spans...)
		l.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// spanTotals reduces the spans (those of the nominal phases alone, when
// asked) to per-name count, total and self time. Children are the spans
// naming a span as parent.
func (t *tracer) spanTotals(nominalOnly bool) map[string][3]int64 {
	all := t.allSpans()
	kids := make(map[int32][]span)
	for _, s := range all {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string][3]int64)
	for _, s := range all {
		if s.End < s.Start || (nominalOnly && !s.Nominal) {
			continue // still open when the run ended, or outside the phase
		}
		v := out[s.Name]
		v[0]++
		v[1] += s.End - s.Start
		v[2] += selfTime(s, kids[s.ID])
		out[s.Name] = v
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(fh, 1<<20)
	enc := json.NewEncoder(w)
	for _, sp := range t.allSpans() {
		if err := enc.Encode(&sp); err != nil {
			fh.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
