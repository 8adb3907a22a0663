// Step mode: the staged engine driven synchronously, at parallelism 0, by
// an external scheduler.
//
// A node normally runs its own protocol goroutine (Start) with the periodic
// tasks driven by its clock's tickers and, in parallel configurations, the
// egress stage on its own workers. The methods below expose the same stages
// as synchronous calls on the caller's goroutine — the protocol stage's inbox
// pump (HandleEnvelope / PumpInbox) and ticks (TickGossip / TickMembership /
// SweepFailures), and egress (emit falls through to a direct send when no
// egress workers run) — so an external scheduler such as internal/harness's
// virtual-time scenario engine can drive a whole fleet deterministically
// from a single goroutine. This is not a second runtime: it is the engine's
// degenerate configuration, every stage collapsed onto one goroutine, which
// is why seeded step-mode campaigns replay the exact traces earlier serial
// revisions produced. Never call Start on a step-driven node, and never mix
// step calls with a running Start loop.

package node

import (
	"errors"
	"fmt"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/transport"
)

// HandleEnvelope processes one received message synchronously, as the
// protocol stage does (transport.Raw payloads are unframed with the node's
// decoder).
func (n *Node) HandleEnvelope(env transport.Envelope) { n.handle(env, new(heard)) }

// PumpInbox drains and handles every envelope queued on the node's
// endpoint without blocking — those queued while it runs too — and returns
// how many were processed: the live engine's pump without its bound. A
// closed, drained endpoint pumps zero.
func (n *Node) PumpInbox() int {
	var h heard
	var envs [stepPumpBatch]transport.Envelope
	handled := 0
	for {
		k, _ := n.ep.Inbox().Drain(envs[:])
		if k == 0 {
			return handled
		}
		for i := range envs[:k] {
			n.handle(envs[i], &h)
		}
		handled += k
	}
}

// stepPumpBatch is how many envelopes PumpInbox takes from the inbox per
// lock, on the stack.
const stepPumpBatch = 16

// WarmViews folds any pending membership changes into the node's tree views
// immediately instead of lazily at the next tick. The fold is a pure
// function of the node's own membership state, so a harness may warm many
// nodes concurrently — after a bootstrap that hands the whole fleet the
// same initial roster, the per-node folds are the same work a real
// deployment does on a thousand separate machines.
func (n *Node) WarmViews() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rebuildIfStaleLocked()
}

// AdoptViewsFrom copies the donor's folded tree instead of recomputing an
// identical fold. Legal only when both nodes hold the same membership
// roster and the donor is fully folded; both nodes must be quiescent — this
// is a bootstrap-time tool for harnesses co-hosting many nodes, where n
// identical folds would otherwise cost n full aggregate recomputations. The
// roster hash check is sound only because the fleets that use it are
// bootstrapped over one shared membership.Roster: the hash does not cover
// subscriptions, so two rosters built apart could hash equal and fold
// differently.
func (n *Node) AdoptViewsFrom(donor *Node) error {
	if donor == n {
		return nil
	}
	donor.mu.Lock()
	if donor.treeVersion != donor.mem.Version() {
		donor.mu.Unlock()
		return errors.New("node: donor views are stale")
	}
	donorHash := donor.mem.RosterHash()
	clone := donor.tree.Clone()
	donor.mu.Unlock()

	n.mu.Lock()
	defer n.mu.Unlock()
	if n.mem.RosterHash() != donorHash {
		return errors.New("node: donor roster differs")
	}
	n.tree = clone
	n.treeVersion = n.mem.Version()
	proc, err := core.RebuildProcess(n.tree, n.cfg.Addr, n.coreConfig(), n.proc)
	if err != nil {
		return fmt.Errorf("node: rebuilding process: %w", err)
	}
	n.proc = proc
	return nil
}

// TickGossip runs one gossip period (the protocol stage's gossip arm).
func (n *Node) TickGossip() { n.tickGossip() }

// TickMembership runs one membership anti-entropy period (the protocol
// stage's digest arm), including the join-retry bootstrap.
func (n *Node) TickMembership() { n.tickMembership() }

// SweepFailures runs one failure-detector sweep, returning the newly
// expelled addresses.
func (n *Node) SweepFailures() []addr.Address { return n.mem.SweepFailures() }
