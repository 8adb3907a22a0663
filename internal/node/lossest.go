// The per-peer loss estimator behind adaptive fan-out: a passive observer
// that piggybacks on traffic the protocol already sends.
//
// Every outgoing sub-message addressed to a peer advances a cumulative
// per-destination counter, and the digests and heartbeats the membership
// layer already emits carry that counter as a beacon (the Sent field): the
// cumulative number of sub-messages the sender has addressed to the beacon's
// destination, up to and including the beacon itself in the batch's canonical
// order. The receiver counts what actually arrives from each peer, so on a
// lossless link the beacon and the local counter agree exactly, and on a
// lossy one the shortfall over a beacon-to-beacon window is a direct loss
// measurement:
//
//	loss ≈ 1 − (parts received in window) / (parts sent in window)
//
// Windows shorter than lossEstMinWindow parts are accumulated rather than
// sampled (a 1-of-2 shortfall is noise, not signal), and samples fold into
// an EWMA so a burst decays instead of pinning the estimate. A beacon whose
// counter runs backwards means the peer restarted (rejoin): the window and
// the estimate reset, because history across an identity reset is
// meaningless.
//
// All methods are safe for concurrent use; in the staged engine the writers
// are the protocol stage (stamping in emit, counting in handle) and whoever
// calls Join or Leave, while readers are the core.Process tuning loop
// (protocol stage) and stats snapshots (any goroutine).

package node

import (
	"sync"

	"pmcast/internal/addr"
	"pmcast/internal/membership"
	"pmcast/internal/wire"
)

const (
	// lossEstMinWindow is the minimum number of sender-side parts between
	// folded samples: beacons arriving before the window fills extend it.
	lossEstMinWindow = 8
	// lossEstAlpha is the EWMA weight of the newest window's loss sample.
	lossEstAlpha = 0.5
)

// peerLossState is one directed link's bookkeeping. sentTo counts parts we
// addressed to the peer; the rest tracks the inbound direction — what the
// peer's beacons claim versus what we saw arrive.
type peerLossState struct {
	sentTo     uint32  // cumulative parts addressed to this peer (outbound)
	recvFrom   uint32  // cumulative parts received from this peer (inbound)
	beaconBase uint32  // peer's counter at the last closed window
	recvBase   uint32  // our recvFrom at the last closed window
	synced     bool    // a first beacon anchored the window bases
	est        float64 // EWMA loss estimate for the inbound direction
	samples    int     // windows folded into est
}

// lossEstimator tracks per-peer send/receive counters and loss estimates,
// keyed by address key (addr.Address.Key()).
type lossEstimator struct {
	mu    sync.Mutex
	peers map[string]*peerLossState
}

func newLossEstimator() *lossEstimator {
	return &lossEstimator{peers: make(map[string]*peerLossState)}
}

func (e *lossEstimator) peerLocked(key string) *peerLossState {
	st := e.peers[key]
	if st == nil {
		st = &peerLossState{}
		e.peers[key] = st
	}
	return st
}

// advanceOut charges parts outgoing sub-messages to dest and returns the
// cumulative count *before* this message — the base a beacon stamp adds its
// canonical in-batch position to.
func (e *lossEstimator) advanceOut(dest string, parts int) uint32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.peerLocked(dest)
	base := st.sentTo
	st.sentTo += uint32(parts)
	return base
}

// noteRecv counts parts sub-messages that arrived from a peer.
func (e *lossEstimator) noteRecv(from string, parts int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.peerLocked(from).recvFrom += uint32(parts)
}

// observeBeacon folds one received beacon (a Sent stamp from a digest or
// heartbeat). Call it after noteRecv has counted the beacon's own envelope,
// so a lossless window compares equal.
func (e *lossEstimator) observeBeacon(from string, sent uint32) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.peerLocked(from)
	// Serial-number arithmetic (RFC 1982 style): the counters are uint32 and
	// a sustained stream wraps them, so "ran backwards" cannot be tested with
	// an ordinary comparison — a beacon just past 2^32 would read as smaller
	// than a base just before it and reset a perfectly healthy window. The
	// modular delta disambiguates: a forward step lands in [0, 2^31), a
	// genuine restart (or a beacon reordered across a reset) lands in the
	// upper half.
	sentDelta := sent - st.beaconBase
	if !st.synced || sentDelta >= 1<<31 {
		// First contact, or the peer's counter ran backwards — a restart
		// (rejoin) or a reordered beacon. Either way the open window spans
		// an identity we can't account for: anchor fresh and drop the
		// estimate rather than report phantom loss.
		st.beaconBase = sent
		st.recvBase = st.recvFrom
		st.synced = true
		st.est = 0
		st.samples = 0
		return
	}
	if sentDelta < lossEstMinWindow {
		return // window too small to be signal; keep accumulating
	}
	recvDelta := st.recvFrom - st.recvBase
	if recvDelta > sentDelta {
		// More arrivals than the beacon accounts for: a beacon overtaken by
		// reordering. Clamp — loss can't be negative.
		recvDelta = sentDelta
	}
	sample := 1 - float64(recvDelta)/float64(sentDelta)
	if st.samples == 0 {
		st.est = sample
	} else {
		st.est = lossEstAlpha*sample + (1-lossEstAlpha)*st.est
	}
	st.samples++
	st.beaconBase = sent
	st.recvBase = st.recvFrom
}

// Estimate reports the loss estimate toward a peer. ok is false until at
// least one full window has been measured — callers fall back to their
// configured assumption (core.Config.AssumedLoss) for peers with no signal,
// so zero-traffic links never read as lossless.
func (e *lossEstimator) Estimate(key string) (float64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.peers[key]
	if st == nil || st.samples == 0 {
		return 0, false
	}
	return st.est, true
}

// LossEstStats is a snapshot of the estimator for reports and debugging.
type LossEstStats struct {
	// TrackedPeers is the number of directed links with any bookkeeping.
	TrackedPeers int
	// MeasuredPeers is the number with at least one full measured window.
	MeasuredPeers int
	// MeanLoss is the mean estimate over measured peers (0 when none).
	MeanLoss float64
}

// stampOutgoing charges an outgoing payload to the destination's sent
// counter and stamps any digest/heartbeat beacon it carries with the
// cumulative count at that sub-message's position in the batch's canonical
// order (gossips, repairs, update, digest, heartbeat) — the order the
// receiver counts an envelope's parts in, so a lossless link's receive counter
// reads exactly the beacon value when it reaches the beacon. Beacon-carrying
// payloads are copied before stamping: egress workers encode asynchronously
// and the membership layer's pointers may be shared. Every send is charged
// here — emit's, and the Join and Leave announcements that go around it —
// or the receiver counts parts no beacon accounts for. Without an estimator
// the payload passes through untouched.
func (n *Node) stampOutgoing(to addr.Address, payload any) any {
	if n.est == nil {
		return payload
	}
	key := to.Key()
	switch m := payload.(type) {
	case wire.Batch:
		base := n.est.advanceOut(key, m.Parts())
		pos := uint32(len(m.Gossips) + m.Repairs())
		if m.Update != nil {
			pos++
		}
		if m.Digest != nil {
			pos++
			d := *m.Digest
			d.Sent = base + pos
			m.Digest = &d
		}
		if m.Heartbeat != nil {
			pos++
			hb := *m.Heartbeat
			hb.Sent = base + pos
			m.Heartbeat = &hb
		}
		return m
	case membership.Digest:
		m.Sent = n.est.advanceOut(key, 1) + 1
		return m
	case membership.Heartbeat:
		m.Sent = n.est.advanceOut(key, 1) + 1
		return m
	default:
		n.est.advanceOut(key, 1)
		return payload
	}
}

// observeIncoming counts one received payload's sub-messages and folds any
// beacon it carries. Inside a batch the counting is positional: each beacon
// compares against the receive counter as of its own canonical slot, not the
// whole envelope — over the parts that arrived, since a lossy fabric hands
// over an envelope's survivors. A zero Sent is "no beacon" — the sender isn't
// running an estimator (the wire zero value).
func (n *Node) observeIncoming(from addr.Address, payload any) {
	key := from.Key()
	switch m := payload.(type) {
	case wire.Batch:
		counted := 0
		prefix := len(m.Gossips) + m.Repairs()
		if m.Update != nil {
			prefix++
		}
		if m.Digest != nil {
			prefix++
			n.est.noteRecv(key, prefix-counted)
			counted = prefix
			if m.Digest.Sent > 0 {
				n.est.observeBeacon(key, m.Digest.Sent)
			}
		}
		if m.Heartbeat != nil {
			prefix++
			n.est.noteRecv(key, prefix-counted)
			counted = prefix
			if m.Heartbeat.Sent > 0 {
				n.est.observeBeacon(key, m.Heartbeat.Sent)
			}
		}
		if prefix > counted {
			n.est.noteRecv(key, prefix-counted)
		}
	case membership.Digest:
		n.est.noteRecv(key, 1)
		if m.Sent > 0 {
			n.est.observeBeacon(key, m.Sent)
		}
	case membership.Heartbeat:
		n.est.noteRecv(key, 1)
		if m.Sent > 0 {
			n.est.observeBeacon(key, m.Sent)
		}
	default:
		n.est.noteRecv(key, 1)
	}
}

// LossEstimates reports the estimator snapshot; the zero value when
// AdaptiveFanout is off.
func (n *Node) LossEstimates() LossEstStats {
	if n.est == nil {
		return LossEstStats{}
	}
	return n.est.stats()
}

func (e *lossEstimator) stats() LossEstStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := LossEstStats{TrackedPeers: len(e.peers)}
	var sum float64
	for _, st := range e.peers {
		if st.samples > 0 {
			s.MeasuredPeers++
			sum += st.est
		}
	}
	if s.MeasuredPeers > 0 {
		s.MeanLoss = sum / float64(s.MeasuredPeers)
	}
	return s
}
