package fec

import "pmcast/internal/event"

// The receiver side of the coding layer keeps one global cache of canonical
// event bodies — filled from every gossip the node receives, whoever sent it
// — and matches repair symbols (which arrive tagged by sender, since
// generation numbers are per-sender counters) to the generations they belong
// to. The moment any generation holds k of its k+r symbols with at least one
// source missing, it solves for the missing sources and hands back the
// recovered bodies.
//
// The source cache is global on purpose: symbols are canonical event
// encodings, identical no matter which sender transmitted the event, so a
// generation coded by sender S completes from copies the node obtained
// anywhere. That is what lets the sender side code each event once instead
// of once per link — a repair patches the rare event the node missed on
// every inbound link at once.
//
// Nothing here is trusted: repair headers are bounds-checked, recovered
// symbols carry the event ID the generation header promised so Observe can
// reject a mis-matched reconstruction, and all state is bounded with
// deterministic FIFO eviction. A partial generation that never completes
// simply expires after genTTL rounds — its arrived source symbols were
// already processed as ordinary gossips, so expiry is the "fall back to what
// arrived" path, not a loss.

// recovered is one reconstructed event body, with the identity and routing
// metadata the generation header carried for its slot.
type recovered struct {
	id   event.ID
	meta Meta
	body []byte
}

type senderState struct {
	gens     map[uint64]*pendingGen
	genOrder []uint64
	// done remembers recently completed generations so a late duplicate or
	// extra repair symbol cannot re-open one and recover the same sources
	// twice.
	done      map[uint64]bool
	doneOrder []uint64
	lastSeen  int
}

// markDone retires a generation for good (bounded FIFO).
func (s *senderState) markDone(key uint64) {
	delete(s.gens, key)
	if s.done[key] {
		return
	}
	if len(s.doneOrder) >= maxDone {
		evict := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		delete(s.done, evict)
	}
	s.done[key] = true
	s.doneOrder = append(s.doneOrder, key)
}

type pendingGen struct {
	k, r    int
	symLen  int
	ids     []event.ID
	meta    []Meta
	srcHave [][]byte // len k, cached event bodies, unpadded; nil = missing
	reps    []RepairSymbol
	born    int
}

// observeSource records the canonical event bytes of a gossip the node
// obtained — received on any link, or recovered — and fills them into every
// pending generation that lists the event. It returns the recoveries that
// completion unlocked, if any. Event bytes are immutable per ID, so
// re-observing a cached event is a no-op beyond the generation fill.
func (c *Coder) observeSource(id event.ID, body []byte) []recovered {
	if _, ok := c.src[id]; !ok {
		if len(c.srcOrder) >= maxSrcCache {
			evict := c.srcOrder[0]
			c.srcOrder = c.srcOrder[1:]
			delete(c.src, evict)
		}
		c.srcOrder = append(c.srcOrder, id)
		c.src[id] = append([]byte(nil), body...)
	}
	var out []recovered
	for _, from := range c.senderOrder {
		s := c.senders[from]
		if s == nil {
			continue
		}
		for _, gk := range s.genOrder {
			g := s.gens[gk]
			if g == nil {
				continue
			}
			if c.fillSources(g) {
				out = append(out, c.tryComplete(s, gk, g)...)
			}
		}
	}
	return out
}

// observeRepair folds one repair symbol of generation gen (its header; the
// symbols gen itself lists are not read) into the pending generation,
// creating it on first sight, and returns any recoveries it unlocked.
// Malformed repairs are dropped and counted corrupt — the wire layer has
// already charged the sender for them.
func (c *Coder) observeRepair(from string, gen Generation, rs RepairSymbol) []recovered {
	c.stats.RepairsReceived++
	if gen.K < 1 || gen.R < 1 || gen.K+gen.R > MaxSymbols ||
		rs.Index < 0 || rs.Index >= gen.R ||
		gen.SymLen < 1 || gen.SymLen > maxSymbolLen ||
		len(gen.IDs) != gen.K || len(gen.Meta) != gen.K || len(rs.Data) != gen.SymLen {
		c.stats.Corrupt++
		return nil
	}
	s := c.sender(from)
	if s.done[gen.Gen] {
		return nil
	}
	g := s.gens[gen.Gen]
	if g == nil {
		if len(s.genOrder) >= maxGens {
			c.evictOldestGen(s)
		}
		g = &pendingGen{
			k:       gen.K,
			r:       gen.R,
			symLen:  gen.SymLen,
			ids:     append([]event.ID(nil), gen.IDs...),
			meta:    append([]Meta(nil), gen.Meta...),
			srcHave: make([][]byte, gen.K),
			born:    c.round,
		}
		s.gens[gen.Gen] = g
		s.genOrder = append(s.genOrder, gen.Gen)
		c.fillSources(g)
	} else if g.k != gen.K || g.r != gen.R || g.symLen != gen.SymLen {
		c.stats.Corrupt++
		return nil
	}
	for _, have := range g.reps {
		if have.Index == rs.Index {
			return c.tryComplete(s, gen.Gen, g)
		}
	}
	g.reps = append(g.reps, rs)
	return c.tryComplete(s, gen.Gen, g)
}

// sweep expires generations older than genTTL rounds and forgets senders
// silent for senderTTL rounds. Tick runs it once per gossip round.
func (c *Coder) sweep() {
	keep := c.senderOrder[:0]
	for _, from := range c.senderOrder {
		s := c.senders[from]
		if s == nil {
			continue
		}
		kg := s.genOrder[:0]
		for _, gk := range s.genOrder {
			g := s.gens[gk]
			if g == nil {
				continue
			}
			if c.round-g.born >= genTTL {
				delete(s.gens, gk)
				c.stats.Expired++
				continue
			}
			kg = append(kg, gk)
		}
		s.genOrder = kg
		if c.round-s.lastSeen >= senderTTL {
			delete(c.senders, from)
			continue
		}
		keep = append(keep, from)
	}
	c.senderOrder = keep
}

func (c *Coder) sender(from string) *senderState {
	s := c.senders[from]
	if s != nil {
		s.lastSeen = c.round
		return s
	}
	if len(c.senderOrder) >= maxSenders {
		evict := c.senderOrder[0]
		c.senderOrder = c.senderOrder[1:]
		delete(c.senders, evict)
	}
	s = &senderState{
		gens:     make(map[uint64]*pendingGen),
		done:     make(map[uint64]bool),
		lastSeen: c.round,
	}
	c.senders[from] = s
	c.senderOrder = append(c.senderOrder, from)
	return s
}

func (c *Coder) evictOldestGen(s *senderState) {
	for len(s.genOrder) > 0 {
		gk := s.genOrder[0]
		s.genOrder = s.genOrder[1:]
		if _, ok := s.gens[gk]; ok {
			delete(s.gens, gk)
			c.stats.Expired++
			return
		}
	}
}

// fillSources points the generation's empty symbol slots at the cached
// bodies they list. Reports whether it filled at least one new slot.
func (c *Coder) fillSources(g *pendingGen) bool {
	filled := false
	for i, id := range g.ids {
		if g.srcHave[i] != nil {
			continue
		}
		body, ok := c.src[id]
		if !ok || SymbolLen(body) > g.symLen {
			continue
		}
		g.srcHave[i] = body
		filled = true
	}
	return filled
}

// tryComplete attempts reconstruction once the generation holds k symbols.
// Whatever the outcome — complete with nothing to recover, a successful
// solve, or a corrupt reconstruction — the generation is retired; only a
// still-short generation keeps waiting. Source bodies are padded to symbols
// here, for the solve alone.
func (c *Coder) tryComplete(s *senderState, key uint64, g *pendingGen) []recovered {
	have := 0
	for _, sym := range g.srcHave {
		if sym != nil {
			have++
		}
	}
	if have == g.k {
		s.markDone(key)
		return nil
	}
	if have+len(g.reps) < g.k {
		return nil
	}
	shards := make([][]byte, g.k+g.r)
	for i, body := range g.srcHave {
		if body != nil {
			shards[i] = make([]byte, g.symLen)
			PackSymbol(shards[i], body)
		}
	}
	for _, rep := range g.reps {
		shards[g.k+rep.Index] = rep.Data
	}
	code, err := NewCode(g.k, g.r)
	if err != nil {
		s.markDone(key)
		c.stats.Corrupt++
		return nil
	}
	c.stats.Decodes++
	if err := code.Reconstruct(shards); err != nil {
		s.markDone(key)
		c.stats.Corrupt++
		return nil
	}
	var out []recovered
	for i := 0; i < g.k; i++ {
		if g.srcHave[i] != nil {
			continue
		}
		body, err := UnpackSymbol(shards[i])
		if err != nil {
			c.stats.Corrupt++
			continue
		}
		out = append(out, recovered{id: g.ids[i], meta: g.meta[i], body: body})
	}
	s.markDone(key)
	return out
}
