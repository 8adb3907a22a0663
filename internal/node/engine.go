// The staged engine: Start's concurrent runtime, decomposed so a busy node
// uses as many cores as its traffic deserves.
//
//	endpoint ──▶ ingress (N decode workers) ──▶ protocol (1 goroutine) ──▶ egress (M send workers) ──▶ endpoint
//
// Protocol state — membership folds, tree views, the core.Process, the RNG,
// the seen-set, the coding layer — has one lock, the node's mu. The protocol
// stage takes it to handle an envelope or run a tick, and Publish takes it
// on the caller's goroutine; nothing else writes. The ingress workers own the
// per-worker wire decoders (intern tables are goroutine-local), and the
// egress workers own the encode/send cost (the pooled wire encoders and the
// socket writes), so neither holds the lock. Stages are connected by bounded
// queues: ingress backpressures into the transport's inbox (which drops on
// overflow, like a UDP socket buffer), while the protocol stage never blocks
// on egress — a full egress queue drops the send job and counts it
// (EngineStats), exactly the failure semantics a kernel socket buffer would
// impose.
//
// With DecodeWorkers and EncodeWorkers both zero the stages collapse onto
// the protocol goroutine and run() is precisely the serial event loop of
// earlier revisions — the deterministic configuration, also reachable
// synchronously through the step-mode API (step.go).

package node

import (
	"sync/atomic"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/transport"
	"pmcast/internal/wire"
)

// egressJob is one outgoing envelope, a wire.Batch that emit boxed: the
// egress workers encode (via the transport) and send it, a drained run of
// them in one SendMany.
type egressJob = transport.Outgoing

// run is the protocol stage: the one goroutine that handles received
// envelopes and runs the periodic tasks while the engine is live. It brings
// up the ingress and egress stages around itself when the configuration asks
// for parallelism, and returns on Stop or once its input is gone — the
// serial inbox closed, or the protocol queue closed and drained.
func (n *Node) run() {
	defer close(n.done)
	if n.egressQ != nil {
		// Closed when the protocol stage exits, so the workers drain the
		// remaining jobs and quit before Stop joins them.
		defer n.egressQ.close()
		for i := 0; i < n.cfg.EncodeWorkers; i++ {
			n.wg.Add(1)
			go n.egressLoop()
		}
	}
	inbox := n.ep.Recv()
	// protoReady is nil (never ready) in the serial configuration.
	var protoReady <-chan struct{}
	var envs []transport.Envelope
	if n.protoQ != nil {
		inbox = nil // the ingress workers own the endpoint; we read protoQ
		protoReady = n.protoQ.ready
		envs = make([]transport.Envelope, ingressRecvBatch)
		// The ingress workers are the queue's only producers: the last one to
		// exit — the endpoint's Recv closed underneath the node — closes it,
		// and the protocol stage winds down once it has drained it, just as
		// the serial loop returns on a closed inbox.
		live := new(atomic.Int32)
		live.Store(int32(n.cfg.DecodeWorkers))
		for i := 0; i < n.cfg.DecodeWorkers; i++ {
			n.wg.Add(1)
			go n.ingressLoop(live)
		}
	}
	gossip := n.cfg.Clock.NewTicker(n.cfg.GossipInterval)
	defer gossip.Stop()
	memTick := n.cfg.Clock.NewTicker(n.cfg.MembershipInterval)
	defer memTick.Stop()
	sweep := n.cfg.Clock.NewTicker(n.cfg.SuspectAfter / 2)
	defer sweep.Stop()

	// A wake-up on either input pumps it: up to ingressRecvBatch of what is
	// queued (plus, on the inbox, the envelope the select received) — one
	// trip through the six-way select per burst instead of one per envelope,
	// and bounded, so the tickers and stop are never more than a batch away.
	// A drain that leaves envelopes behind re-arms ready.
	var h heard
	onEnvelope := func(env transport.Envelope) { n.handle(env, &h) }
	for {
		h = heard{}
		select {
		case <-n.stop:
			return
		case env, ok := <-inbox: // nil (never ready) when ingress workers run
			if !ok {
				return
			}
			onEnvelope(env)
			if _, open := pump(inbox, ingressRecvBatch, onEnvelope); !open {
				return
			}
		case <-protoReady:
			k, open := n.protoQ.drain(envs)
			if k == 0 && !open {
				return // transport closed underneath the node
			}
			for _, env := range envs[:k] {
				onEnvelope(env)
			}
			clear(envs[:k])
		case <-gossip.C():
			n.tickGossip()
		case <-memTick.C():
			n.tickMembership()
		case <-sweep.C():
			n.mem.SweepFailures()
		}
	}
}

// Stage batch widths. egressFlushMax bounds how many queued send jobs one
// egress worker hands the endpoint per SendMany flush — on the UDP backend
// that is up to four sendmmsg vectors of 64 — and ingressRecvBatch is how
// many envelopes one wake-up moves on the way in: what an ingress worker
// pulls per RecvMany (four of the UDP backend's 16-datagram recvmmsg
// vectors, which a burst fills back to back), and what the protocol stage
// pumps from its queue before it looks at its tickers again.
const (
	egressFlushMax   = 256
	ingressRecvBatch = 64
)

// pump hands handle the messages queued on ch without blocking — at most
// limit of them, all that are there when limit is negative — and reports how
// many it handled and whether ch is still open. It is the one way in for
// queued input: the live protocol stage pumps a bounded batch per wake-up,
// step mode (PumpInbox) the whole queue.
func pump[T any](ch <-chan T, limit int, handle func(T)) (handled int, open bool) {
	for handled != limit {
		select {
		case m, ok := <-ch:
			if !ok {
				return handled, false
			}
			handle(m)
			handled++
		default:
			return handled, true
		}
	}
	return handled, true
}

// heard is one pump's liveness bookkeeping. Every envelope is a life sign of
// its sender, but a pump is one visit to the queue: it reads the clock once,
// and a run of consecutive envelopes from one sender — a round envelope with
// the repair-only flush or the membership beacon the sender ticked behind it,
// the chunks of a round envelope the UDP fabric split at the MTU — records
// the sender once (a record per envelope was measured and costs more, see
// DESIGN.md "Liveness once per sender per pump"). Under a virtual clock a
// pump is a single instant, so what the failure detector sees is exactly
// what one record per envelope left behind.
type heard struct {
	at   time.Time
	from string // key of the sender recorded last; "" before the first
}

// ingressLoop is one ingress-stage worker: it drains the endpoint —
// concurrently with its siblings — decodes raw frames with its own
// interning decoder, and hands typed messages to the protocol stage. A full
// protocol queue blocks the worker (backpressure into the transport inbox),
// never the protocol stage itself. Endpoints with a batch seam
// (transport.BatchReceiver) are drained a burst at a time — one worker
// wakeup per kernel receive batch instead of one per datagram. live counts
// the workers still running; the last to exit closes the protocol queue.
func (n *Node) ingressLoop(live *atomic.Int32) {
	defer n.wg.Done()
	defer func() {
		if live.Add(-1) == 0 {
			n.protoQ.close()
		}
	}()
	dec := wire.NewDecoder()
	recv := func(batch []transport.Envelope) (int, bool) {
		env, ok := <-n.ep.Recv()
		if !ok {
			return 0, false
		}
		batch[0] = env
		return 1, true
	}
	if br, ok := n.ep.(transport.BatchReceiver); ok {
		recv = br.RecvMany
	}
	batch := make([]transport.Envelope, ingressRecvBatch)
	for {
		m, alive := recv(batch)
		// Decoded envelopes are compacted to the front of the batch.
		k := 0
		for i := range batch[:m] {
			if n.decodeRaw(dec, &batch[i]) {
				batch[k] = batch[i]
				k++
			}
		}
		// One hand-off per burst: the whole batch under one lock.
		queued := k == 0 || n.protoQ.push(batch[:k], n.stop)
		clear(batch[:m])
		if !queued || !alive {
			return
		}
	}
}

// egressLoop is one egress-stage worker: it consumes send jobs until the
// protocol stage closes the queue, encoding (inside the transport send) and
// counting wire cost as it goes. When the endpoint offers a batch seam
// (transport.BatchSender), the worker drains whatever the queue holds, up to
// egressFlushMax, and hands the whole run over in one SendMany — the flush
// the UDP backend turns into sendmmsg vectors. Per-message semantics are
// identical to sending one at a time (the seam guarantees it), so the
// serial configuration and non-batching fabrics are untouched. Without the
// seam a worker takes one job per drain, so a burst spreads over the workers.
func (n *Node) egressLoop() {
	defer n.wg.Done()
	bs, batched := n.ep.(transport.BatchSender)
	width := 1
	if batched {
		width = egressFlushMax
	}
	jobs := make([]egressJob, width)
	for {
		k, open := n.egressQ.drain(jobs)
		if k == 0 {
			if !open {
				return // closed and drained
			}
			<-n.egressQ.ready
			continue
		}
		if batched {
			n.sendMany(bs, jobs[:k])
		} else {
			n.count(jobs[0].Payload)
			_ = n.ep.Send(jobs[0].To, jobs[0].Payload)
		}
		clear(jobs[:k])
	}
}

// emit hands one outgoing batch to the egress stage, or sends it
// inline when no egress workers run. The protocol stage never blocks on a
// slow fabric: a full egress queue drops the envelope and counts it, the
// same silent-loss semantics as an overflowing UDP socket buffer.
func (n *Node) emit(to addr.Address, b wire.Batch) {
	if n.egressQ != nil {
		if !n.egressQ.tryPush(egressJob{To: to, Payload: b}) {
			n.egressDrops.Add(1)
		}
		return
	}
	_ = n.send(to, b)
}

// EngineStats reports staged-runtime counters: send jobs dropped because
// the egress queue was full (always zero in serial configurations, which
// send inline), and inbound frames that failed to decode — counted wherever
// the decoding happened, on an ingress worker or on the serial/step path of
// a byte-oriented fabric (UDP).
func (n *Node) EngineStats() (egressDropped, malformed int64) {
	return n.egressDrops.Load(), n.malformed.Load()
}

// EgressFlushStats reports the egress stage's queue-flush batching: how
// many SendMany flushes the workers issued and how many envelopes those
// flushes carried. envelopes/flushes is the engine-side amortization handed
// to the transport (the kernel-side amortization — datagrams per syscall —
// is the transport's to report; see udp.Transport.Stats). Both zero in
// serial configurations and on fabrics without a batch seam.
func (n *Node) EgressFlushStats() (flushes, envelopes int64) {
	return n.egressFlushes.Load(), n.egressFlushed.Load()
}
