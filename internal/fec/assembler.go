package fec

import "pmcast/internal/event"

// Assembler is the receiver side of the coding layer. It keeps one global
// cache of canonical event bodies — filled from every gossip the node
// receives, whoever sent it — and matches repair symbols (which arrive
// tagged by sender, since generation numbers are per-sender counters) to
// the generations they belong to. The moment any generation holds k of
// its k+r symbols with at least one source missing, it solves for the
// missing sources and hands back the recovered bodies.
//
// The source cache is global on purpose: symbols are canonical event
// encodings, identical no matter which sender transmitted the event, so
// a generation coded by sender S completes from copies the node obtained
// anywhere. That is what lets the sender side code each event once
// instead of once per link — a repair patches the rare event the node
// missed on every inbound link at once.
//
// The assembler is protocol state, under its node's state lock: no locking,
// and every internal iteration runs over insertion-ordered slices rather
// than maps, so a seeded run replays byte-identically.
//
// Nothing here is trusted: repair headers are bounds-checked, recovered
// symbols carry the event ID the generation header promised so the caller
// can reject a mis-matched reconstruction, and all state is bounded with
// deterministic FIFO eviction. A partial generation that never completes
// simply expires after a few gossip rounds — its arrived source symbols
// were already processed as ordinary gossips, so expiry is the "fall back
// to what arrived" path, not a loss.
type Assembler struct {
	round    int
	senders  map[string]*senderState
	order    []string // sender insertion order: deterministic sweep + eviction
	src      map[event.ID][]byte
	srcOrder []event.ID
	stats    Stats
}

// Stats counts the assembler's work. Decodes is matrix solves attempted,
// Recoveries is source symbols actually reconstructed, Corrupt is
// reconstructions discarded by framing or identity checks, Expired is
// partial generations dropped by the round-based timeout.
type Stats struct {
	RepairsReceived int64
	Decodes         int64
	Recoveries      int64
	Corrupt         int64
	Expired         int64
}

// Recovered is one reconstructed event body. ID is the identity the
// generation header promised for this symbol slot — the caller must verify
// the decoded event matches it before accepting the recovery — and Meta is
// the routing metadata the header carried for the slot, from which the
// caller rebuilds the full gossip.
type Recovered struct {
	ID   event.ID
	Meta Meta
	Body []byte
}

// Bounds. Generations live genTTL gossip rounds before expiring; the
// source cache holds the last maxSrcCache distinct bodies seen on any
// link (a few rounds' worth at any realistic event rate); sender slots
// and pending generations are FIFO-capped so a hostile stream cannot
// grow state without limit. A pending generation holds its header, its
// repair symbols and references to cached bodies — never a padded copy
// of one — so a repair that claims a long SymLen over many cached events
// costs what it carried, not SymLen per listed event.
const (
	genTTL       = 6
	senderTTL    = 64
	maxSrcCache  = 2048
	maxGens      = 64
	maxDone      = 256
	maxSenders   = 4096
	maxSymbolLen = 1 << 20
)

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

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{
		senders: make(map[string]*senderState),
		src:     make(map[event.ID][]byte),
	}
}

// Stats returns a snapshot of the counters.
func (a *Assembler) Stats() Stats { return a.stats }

// ObserveSource records the canonical event bytes of a gossip the node
// obtained — received on any link, recovered, or published locally — and
// fills them into every pending generation that lists the event. It
// returns the recoveries that completion unlocked, if any. Event bytes
// are immutable per ID, so re-observing a cached event is a no-op beyond
// the generation fill.
func (a *Assembler) ObserveSource(id event.ID, body []byte) []Recovered {
	if _, ok := a.src[id]; !ok {
		if len(a.srcOrder) >= maxSrcCache {
			evict := a.srcOrder[0]
			a.srcOrder = a.srcOrder[1:]
			delete(a.src, evict)
		}
		a.srcOrder = append(a.srcOrder, id)
		a.src[id] = append([]byte(nil), body...)
	}
	var out []Recovered
	for _, from := range a.order {
		s := a.senders[from]
		if s == nil {
			continue
		}
		for _, gk := range s.genOrder {
			g := s.gens[gk]
			if g == nil {
				continue
			}
			if a.fillSources(g) {
				out = append(out, a.tryComplete(s, gk, g)...)
			}
		}
	}
	return out
}

// ObserveRepair folds one repair symbol of generation gen (its header; the
// symbols gen itself lists are not read) into the pending generation,
// creating it on first sight, and returns any recoveries it unlocked.
// Malformed repairs are dropped silently — the wire layer has already charged
// the sender for them.
func (a *Assembler) ObserveRepair(from string, gen Generation, rs RepairSymbol) []Recovered {
	a.stats.RepairsReceived++
	if gen.K < 1 || gen.R < 1 || gen.K+gen.R > MaxSymbols ||
		rs.Index < 0 || rs.Index >= gen.R ||
		gen.SymLen < 1 || gen.SymLen > maxSymbolLen ||
		len(gen.IDs) != gen.K || len(gen.Meta) != gen.K || len(rs.Data) != gen.SymLen {
		a.stats.Corrupt++
		return nil
	}
	s := a.sender(from)
	if s.done[gen.Gen] {
		return nil
	}
	g := s.gens[gen.Gen]
	if g == nil {
		if len(s.genOrder) >= maxGens {
			a.evictOldestGen(s)
		}
		g = &pendingGen{
			k:       gen.K,
			r:       gen.R,
			symLen:  gen.SymLen,
			ids:     append([]event.ID(nil), gen.IDs...),
			meta:    append([]Meta(nil), gen.Meta...),
			srcHave: make([][]byte, gen.K),
			born:    a.round,
		}
		s.gens[gen.Gen] = g
		s.genOrder = append(s.genOrder, gen.Gen)
		a.fillSources(g)
	} else if g.k != gen.K || g.r != gen.R || g.symLen != gen.SymLen {
		a.stats.Corrupt++
		return nil
	}
	for _, have := range g.reps {
		if have.Index == rs.Index {
			return a.tryComplete(s, gen.Gen, g)
		}
	}
	g.reps = append(g.reps, rs)
	return a.tryComplete(s, gen.Gen, g)
}

// Sweep advances the assembler's round clock: generations older than
// genTTL rounds expire, and senders silent for senderTTL rounds are
// forgotten. The caller invokes it once per gossip round.
func (a *Assembler) Sweep() {
	a.round++
	keep := a.order[:0]
	for _, from := range a.order {
		s := a.senders[from]
		if s == nil {
			continue
		}
		kg := s.genOrder[:0]
		for _, gk := range s.genOrder {
			g := s.gens[gk]
			if g == nil {
				continue
			}
			if a.round-g.born >= genTTL {
				delete(s.gens, gk)
				a.stats.Expired++
				continue
			}
			kg = append(kg, gk)
		}
		s.genOrder = kg
		if a.round-s.lastSeen >= senderTTL {
			delete(a.senders, from)
			continue
		}
		keep = append(keep, from)
	}
	a.order = keep
}

func (a *Assembler) sender(from string) *senderState {
	s := a.senders[from]
	if s != nil {
		s.lastSeen = a.round
		return s
	}
	if len(a.order) >= maxSenders {
		evict := a.order[0]
		a.order = a.order[1:]
		delete(a.senders, evict)
	}
	s = &senderState{
		gens:     make(map[uint64]*pendingGen),
		done:     make(map[uint64]bool),
		lastSeen: a.round,
	}
	a.senders[from] = s
	a.order = append(a.order, from)
	return s
}

func (a *Assembler) evictOldestGen(s *senderState) {
	for len(s.genOrder) > 0 {
		gk := s.genOrder[0]
		s.genOrder = s.genOrder[1:]
		if _, ok := s.gens[gk]; ok {
			delete(s.gens, gk)
			a.stats.Expired++
			return
		}
	}
}

// fillSources points the generation's empty symbol slots at the cached
// bodies they list. Reports whether it filled at least one new slot.
func (a *Assembler) fillSources(g *pendingGen) bool {
	filled := false
	for i, id := range g.ids {
		if g.srcHave[i] != nil {
			continue
		}
		body, ok := a.src[id]
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
func (a *Assembler) tryComplete(s *senderState, key uint64, g *pendingGen) []Recovered {
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
		a.stats.Corrupt++
		return nil
	}
	a.stats.Decodes++
	if err := code.Reconstruct(shards); err != nil {
		s.markDone(key)
		a.stats.Corrupt++
		return nil
	}
	var out []Recovered
	for i := 0; i < g.k; i++ {
		if g.srcHave[i] != nil {
			continue
		}
		body, err := UnpackSymbol(shards[i])
		if err != nil {
			a.stats.Corrupt++
			continue
		}
		a.stats.Recoveries++
		out = append(out, Recovered{ID: g.ids[i], Meta: g.meta[i], Body: body})
	}
	s.markDone(key)
	return out
}

// NoteCorrupt lets the caller report a recovery it rejected (identity
// mismatch after decode), keeping the corrupt counter in one place.
func (a *Assembler) NoteCorrupt() { a.stats.Corrupt++ }
