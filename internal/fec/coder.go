package fec

import (
	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/event"
)

// Coder is a node's coding layer: the sender side, which codes round
// envelopes per destination subtree; the receiver side, which reassembles
// generations from whatever arrives (assembler.go); and the queue that holds
// what it recovered until the revival delay runs out. A node makes five
// calls and never sees a symbol, a routing key or a recovered body:
//
//	NewCoder(k, r, depth)          once, when coding is on
//	Tick()                         first in every gossip round: the revivals due
//	Code(rs)                       per round envelope: the generations riding it
//	Flush()                        after them: the repair-only envelopes
//	Observe(from, gossips, gens)   per received batch
//
// It runs on one clock, the gossip round, which only Tick advances: every
// age, deadline and time-to-live below is counted in it.
//
// The coder is protocol state, under its node's state lock: no locking, and
// every iteration runs over insertion-ordered slices, never a map, so a
// seeded run replays byte-identically.
type Coder struct {
	enc   *Encoder
	leaf  int // the space's depth: gossips at it are not coded
	round int // gossip rounds ticked

	subtrees []*subtree // by the destination's first digit; nil until coded toward
	order    []*subtree // in the order first coded toward: Flush walks it

	senders     map[string]*senderState
	senderOrder []string // sender insertion order: deterministic sweep + eviction
	src         map[event.ID][]byte
	srcOrder    []event.ID

	revive []revival
	stats  Stats
}

// Stats counts the coding layer's work. All zeros when coding is off.
type Stats struct {
	// RepairBytes is the payload size of every repair symbol emitted — the
	// redundancy overhead paid on the wire.
	RepairBytes int64
	// RepairsReceived counts repair symbols observed.
	RepairsReceived int64
	// Decodes counts reconstruction solves attempted.
	Decodes int64
	// Recovered counts gossips reconstructed from repairs whose event is the
	// one its generation promised — events that would otherwise have waited
	// for a retransmission or been missed.
	Recovered int64
	// Corrupt counts malformed repairs and reconstructions that failed
	// framing or identity checks; Expired counts partial generations that
	// timed out.
	Corrupt int64
	Expired int64
}

// Accumulate folds another snapshot into this one — harness-style banking
// of counters across node generations.
func (s *Stats) Accumulate(o Stats) {
	s.RepairBytes += o.RepairBytes
	s.RepairsReceived += o.RepairsReceived
	s.Decodes += o.Decodes
	s.Recovered += o.Recovered
	s.Corrupt += o.Corrupt
	s.Expired += o.Expired
}

// Flushed is one repair-only envelope: what Flush ships toward a subtree
// whose traffic went quiet, addressed to the last destination there.
type Flushed struct {
	To   addr.Address
	Gens []Generation
}

// The bounds, all in gossip rounds or entries.
//
// Sender side: piggybackAge is how many rounds an open generation waits
// short of k before the next envelope toward its subtree flushes it;
// flushAge is how many it waits with no such envelope before Flush ships it
// alone — deliberately lax, since every firing costs a whole envelope;
// genCopies is how many envelopes each coded generation rides in total
// (consecutive envelopes toward a subtree go to fresh peers there, so the
// copies land on distinct links); recentCap bounds each subtree's window of
// recently coded events.
//
// Receiver side: a recovery waits reviveDelay rounds before it re-enters the
// protocol, and at most maxRevive wait at once; a partial generation lives
// genTTL rounds, and a sender silent for senderTTL is forgotten; the source
// cache holds the last maxSrcCache distinct bodies seen on any link; each
// sender keeps at most maxGens pending and maxDone completed generations,
// and at most maxSenders senders are tracked. A pending generation holds its
// header, its repair symbols and references to cached bodies — never a
// padded copy of one — so a repair that claims a long SymLen over many
// cached events costs what it carried, not SymLen per listed event.
const (
	piggybackAge = 2
	flushAge     = 6
	genCopies    = 2
	recentCap    = 1024

	reviveDelay  = 3
	maxRevive    = 4096
	genTTL       = 6
	senderTTL    = 64
	maxSrcCache  = 2048
	maxGens      = 64
	maxDone      = 256
	maxSenders   = 4096
	maxSymbolLen = 1 << 20
)

// NewCoder builds the coding layer of a node in a space of the given depth,
// coding generations of k sources with r ≥ 1 repairs. Panics on parameters
// NewCode rejects, and on r = 0 — a node without coding has no coder.
func NewCoder(k, r, depth int) *Coder {
	if r < 1 {
		panic("fec: a coder needs r ≥ 1")
	}
	return &Coder{
		enc:     NewEncoder(k, r),
		leaf:    depth,
		senders: make(map[string]*senderState),
		src:     make(map[event.ID][]byte),
	}
}

// Stats returns the counters so far.
func (c *Coder) Stats() Stats { return c.stats }

// Tick starts a gossip round: it advances the clock, expires stale partial
// generations and silent senders, and returns, in recovery order, the
// recovered gossips whose revival delay ran out. The node hands them to its
// protocol like received gossips; its seen-set drops any the real wave
// delivered meanwhile.
func (c *Coder) Tick() []core.Gossip {
	c.round++
	c.sweep()
	var due []core.Gossip
	keep := c.revive[:0]
	for _, rv := range c.revive {
		if rv.due > c.round {
			keep = append(keep, rv)
			continue
		}
		due = append(due, rv.g)
	}
	clear(c.revive[len(keep):]) // so revived events can be collected
	c.revive = keep
	return due
}

// A subtree is the sender side's state toward one top-level subtree of the
// destination: the generation it is accumulating, and the coded ones still
// owed replica rides.
//
// Generations accumulate per destination subtree because gossip routes events
// by interest: the events a node sends toward subtree T are the events T's
// members hold, so a generation coded toward T is decodable there. One
// generation mixing events bound for different subtrees would present mostly
// holes to every receiver — each can fill only its own subtree's slots — and
// reconstruction needs k of k+r symbols present. Symbols are canonical event
// encodings, identical from every sender, so a receiver fills slots from
// copies it obtained anywhere: a repair need not travel the link its sources
// did, and patches the rare event a receiver (or a whole subtree, when every
// copy of a delegate hop is lost) missed.
type subtree struct {
	to   addr.Address // the last destination toward the subtree
	srcs []Source
	born int // round the open generation took its first source
	// recent remembers the last recentCap event IDs coded toward the
	// subtree: gossip retransmits an event for several rounds, and re-coding
	// a copy whose recovery the receiver would discard as a duplicate only
	// spends repair bytes. FIFO-bounded so a long stream cannot grow it.
	recent      map[event.ID]struct{}
	recentOrder []event.ID
	pending     []pendingCopy
}

type pendingCopy struct {
	gen  Generation
	left int
}

func (t *subtree) markCoded(ids []event.ID) {
	for _, id := range ids {
		if _, ok := t.recent[id]; ok {
			continue
		}
		if len(t.recentOrder) >= recentCap {
			evict := t.recentOrder[0]
			t.recentOrder = t.recentOrder[1:]
			delete(t.recent, evict)
		}
		t.recent[id] = struct{}{}
		t.recentOrder = append(t.recentOrder, id)
	}
}

// holds reports whether the subtree's open generation or its recent window
// has the event: its symbol is unchanged, so a slot or a past repair already
// protects it.
func (t *subtree) holds(id event.ID) bool {
	if _, coded := t.recent[id]; coded {
		return true
	}
	for _, have := range t.srcs {
		if have.ID == id {
			return true
		}
	}
	return false
}

// Code takes one round envelope and returns the generations that ride its
// FEC section: replica copies owed from earlier flushes toward the
// destination's subtree, the subtree's open generation flushed short if it
// waited piggybackAge rounds, and any generation the envelope's gossips
// filled. Most envelopes get nothing: accumulating across rounds is what
// amortizes one repair symbol over k distinct events instead of one
// envelope's few.
func (c *Coder) Code(rs core.RoundSend) []Generation {
	var srcs []Source
	for _, g := range rs.Gossips {
		if g.Depth >= c.leaf && c.leaf > 1 {
			// Leaf-level gossips are the dense tail of dissemination: by the
			// time an event floods a leaf group, many members hold it and a
			// lost copy arrives again on another link. Coding them buys
			// little and their volume dominates — the per-slot header cost of
			// protecting every leaf transmission dwarfs the repairs. The
			// sub-leaf delegate hops are where few copies carry the whole
			// subtree's delivery; those are the ones worth coding.
			continue
		}
		srcs = append(srcs, Source{
			ID:   g.Event.ID(),
			Meta: Meta{Depth: g.Depth, Rate: g.Rate, Round: g.Round},
			Body: event.AppendEvent(nil, g.Event),
		})
	}
	d := rs.To.Digit(1)
	if d >= len(c.subtrees) {
		c.subtrees = append(c.subtrees, make([]*subtree, d+1-len(c.subtrees))...)
	}
	t := c.subtrees[d]
	if t == nil {
		if len(srcs) == 0 {
			return nil
		}
		t = &subtree{born: c.round, recent: make(map[event.ID]struct{})}
		c.subtrees[d] = t
		c.order = append(c.order, t)
	}
	t.to = rs.To
	var out []Generation
	keep := t.pending[:0]
	for i := range t.pending {
		p := &t.pending[i]
		out = append(out, p.gen)
		if p.left--; p.left > 0 {
			keep = append(keep, *p)
		}
	}
	t.pending = keep
	if len(t.srcs) > 0 && c.round-t.born >= piggybackAge {
		out = append(out, c.flushOpen(t))
	}
	for _, s := range srcs {
		if t.holds(s.ID) {
			continue
		}
		if len(t.srcs) == 0 {
			t.born = c.round
		}
		t.srcs = append(t.srcs, s)
		if len(t.srcs) == c.enc.k {
			out = append(out, c.flushOpen(t))
		}
	}
	for _, g := range out {
		c.stats.RepairBytes += int64(g.RepairBytes())
	}
	return out
}

// Flush returns a repair-only envelope for every open generation that has
// waited flushAge rounds without an envelope toward its subtree to ride,
// coded short as (k', r), in the order the subtrees were first coded toward.
// Traffic there went quiet; without it the trailing events would lose their
// protection.
func (c *Coder) Flush() []Flushed {
	var out []Flushed
	for _, t := range c.order {
		if len(t.srcs) == 0 || c.round-t.born < flushAge {
			continue
		}
		g := c.flushOpen(t)
		c.stats.RepairBytes += int64(g.RepairBytes())
		out = append(out, Flushed{To: t.to, Gens: []Generation{g}})
	}
	return out
}

// flushOpen codes the subtree's open generation, queues its replica rides,
// and returns the copy for the current envelope.
func (c *Coder) flushOpen(t *subtree) Generation {
	gen := c.enc.encodeGeneration(t.srcs)
	t.markCoded(gen.IDs)
	t.srcs = t.srcs[:0]
	if genCopies > 1 {
		t.pending = append(t.pending, pendingCopy{gen: gen, left: genCopies - 1})
	}
	return gen
}

// revival is one recovered gossip waiting out its revival delay.
type revival struct {
	g   core.Gossip
	due int
}

// Observe takes in one received batch: its gossips as source symbols, then
// its repair symbols one at a time, so a recovery one unlocks is a source for
// the generations after it. Each recovered body must decode to the event its
// generation promised — a mismatch means the solve ran over a poisoned
// source cache, and the result counts as corrupt. An accepted recovery is
// re-observed as a source, which can complete further generations; the
// worklist is bounded because every completion retires its generation.
//
// A recovery is not handed to the protocol at once. A repair decodes an
// event a round or two after the gossip it protects was sent, so for a tail
// loss the real wave usually delivers the event on another link moments
// later — and a premature re-entry would mark it seen, suppress that
// reception, and strip the node of its forwarding duty in the live epidemic
// (measurably lowering fleet reliability). It waits reviveDelay rounds
// instead: if the real wave shows up the revival cancels as a duplicate and
// the run is byte-identical to an uncoded one, and only an event still
// nowhere in sight — the subtree-dead case the coding layer exists for —
// re-enters, with a fresh round budget, to be delivered and re-gossiped
// downstream.
func (c *Coder) Observe(from addr.Address, gossips []core.Gossip, gens []Generation) {
	for _, g := range gossips {
		c.accept(c.observeSource(g.Event.ID(), event.AppendEvent(nil, g.Event)))
	}
	for _, gen := range gens {
		for _, rs := range gen.Repairs {
			c.accept(c.observeRepair(from.Key(), gen, rs))
		}
	}
}

func (c *Coder) accept(recs []recovered) {
	for len(recs) > 0 {
		rec := recs[0]
		recs = recs[1:]
		var ev event.Event
		if err := ev.UnmarshalBinary(rec.body); err != nil || ev.ID() != rec.id {
			c.stats.Corrupt++
			continue
		}
		c.stats.Recovered++
		if len(c.revive) < maxRevive {
			c.revive = append(c.revive, revival{
				g:   core.Gossip{Event: ev, Depth: rec.meta.Depth, Rate: rec.meta.Rate},
				due: c.round + reviveDelay,
			})
		}
		recs = append(recs, c.observeSource(rec.id, rec.body)...)
	}
}
