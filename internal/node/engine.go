// The staged engine: Start's concurrent runtime.
//
//	endpoint ──▶ protocol (1 goroutine) ──▶ egress (M send workers) ──▶ endpoint
//
// Protocol state — membership folds, tree views, the core.Process, the RNG,
// the seen-set, the coding layer — has one lock, the node's mu. The protocol
// goroutine takes it to handle an envelope or run a tick, and Publish takes
// it on the caller's goroutine; nothing else writes. The protocol goroutine
// reads the endpoint's inbox itself and unframes a byte fabric's frames with
// the node's one decoder: it scans a frame and builds only the gossips its
// seen-set lacks, so a decode stage in front of it would have little left to
// do. The egress workers own the encode/send cost (the pooled wire encoders
// and the socket writes), so they hold no lock. The protocol goroutine never
// blocks on egress: a full egress queue drops the send job and counts it
// (EngineStats), the failure semantics a kernel socket buffer imposes.
//
// With EncodeWorkers zero the protocol goroutine sends inline, and run() is
// precisely the serial event loop of earlier revisions — the deterministic
// configuration, also reachable synchronously through the step-mode API
// (step.go).

package node

import (
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/transport"
	"pmcast/internal/wire"
)

// egressJob is one outgoing envelope, a wire.Batch that emit boxed: the
// egress workers encode (via the transport) and send it, a drained run of
// them in one SendMany.
type egressJob = transport.Outgoing

// run is the protocol stage: the one goroutine that reads the endpoint's
// inbox, handles what arrives and runs the periodic tasks while the engine is
// live. It brings up the egress workers when the configuration asks for them,
// and returns on Stop or once the inbox is closed and drained.
func (n *Node) run() {
	defer close(n.done)
	if n.egressQ != nil {
		// Closed when the protocol stage exits, so the workers drain the
		// remaining jobs and quit before Stop joins them.
		defer n.egressQ.Close()
		for i := 0; i < n.cfg.EncodeWorkers; i++ {
			n.wg.Add(1)
			go n.egressLoop()
		}
	}
	in := n.ep.Inbox()
	gossip := n.cfg.Clock.NewTicker(n.cfg.GossipInterval)
	defer gossip.Stop()
	memTick := n.cfg.Clock.NewTicker(n.cfg.MembershipInterval)
	defer memTick.Stop()
	sweep := n.cfg.Clock.NewTicker(n.cfg.SuspectAfter / 2)
	defer sweep.Stop()

	// A wake-up on the inbox pumps it: up to ingressRecvBatch of what is
	// queued — one trip through the five-way select per burst instead of one
	// per envelope, and bounded, so the tickers and stop are never more than
	// a batch away. A drain that leaves envelopes behind re-arms ready.
	envs := make([]transport.Envelope, ingressRecvBatch)
	for {
		select {
		case <-n.stop:
			return
		case <-in.Ready():
			k, open := in.Drain(envs)
			if k == 0 && !open {
				return // transport closed underneath the node
			}
			var h heard
			for i := range envs[:k] {
				n.handle(envs[i], &h)
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

// Batch widths. egressFlushMax bounds how many queued send jobs one egress
// worker hands the endpoint per SendMany flush — on the UDP backend that is
// up to four sendmmsg vectors of 64 — and ingressRecvBatch is how many
// envelopes the protocol stage pumps from its inbox per wake-up before it
// looks at its tickers again.
const (
	egressFlushMax   = 256
	ingressRecvBatch = 64
)

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
		k, open := n.egressQ.RecvMany(jobs)
		if !open {
			return // closed and drained
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
		if !n.egressQ.TryPush(egressJob{To: to, Payload: b}) {
			n.egressDrops.Add(1)
		}
		return
	}
	_ = n.send(to, b)
}

// EngineStats reports staged-runtime counters: send jobs dropped because
// the egress queue was full (always zero in serial configurations, which
// send inline), and inbound frames of a byte-oriented fabric (UDP) that
// failed to decode.
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
