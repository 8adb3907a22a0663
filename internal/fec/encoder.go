package fec

import "pmcast/internal/event"

// Encoder is the sender side of the coding layer. The caller groups its
// outgoing gossips by a routing key — the destination subtree, in the
// node's usage — and the encoder keeps one open generation per key,
// accumulating the distinct events sent toward that subtree across rounds.
// The moment a generation holds k distinct events it is coded and flushed
// onto the current round envelope, then replicated onto the next few
// envelopes toward the same subtree so the repair symbols spread there.
//
// The grouping is what makes repairs decodable: gossip routes events by
// interest, so the nodes of a subtree hold (roughly) exactly the events
// that were sent toward that subtree. A generation mixing events bound
// for different subtrees would present mostly holes to every receiver —
// each node could fill only its own subtree's slots — and reconstruction
// needs k of k+r symbols present. Keying by destination keeps the
// sources a receiver is asked to supply among the ones it plausibly has.
//
// Symbols are canonical event encodings, identical from every sender, so
// a receiver fills slots from copies of the events it obtained anywhere —
// a repair does not need to travel the same link as the sources it
// protects. The repair's job is to patch the rare event a receiver (or a
// whole subtree, when every copy of a delegate hop is lost) missed.
//
// Generations that stop growing are flushed short: piggybacked onto the
// next envelope toward their subtree after piggybackAge rounds, or by
// FlushAged as a dedicated repair-only envelope if traffic stops.
//
// The encoder is protocol state, under its node's state lock: no locking,
// and all state lives in insertion-ordered slices so seeded runs replay
// byte-identically.
type Encoder struct {
	k, r    int
	nextGen uint64
	codes   map[int]*Code // by generation size: short flushes use (k', r)
	scratch [][]byte      // padded source-symbol buffers, reused across flushes

	round int
	keys  map[string]*openGen
	order []string // key insertion order: deterministic sweep + eviction
}

// maxKeys caps routing-key slots (FIFO eviction beyond it — far above any
// real subtree fan-out); recentCap bounds each key's recently-coded
// window; piggybackAge is how many rounds an open generation may wait
// short of k before the next envelope toward its subtree flushes it;
// genCopies is how many envelopes each coded generation rides in total —
// consecutive envelopes toward a subtree go to fresh peers there, so
// copies land on distinct links.
const (
	maxKeys      = 4096
	recentCap    = 1024
	piggybackAge = 2
	genCopies    = 2
)

type openGen struct {
	srcs []Source
	born int // encoder round when the generation opened
	// recent remembers the last recentCap event IDs coded for this key:
	// gossip retransmits an event for several rounds, and re-coding a copy
	// whose recovery the receiver would discard as a duplicate only spends
	// repair bytes. FIFO-bounded so a long stream cannot grow it.
	recent      map[event.ID]struct{}
	recentOrder []event.ID
	// pending holds coded generations still owed replica rides on
	// upcoming envelopes toward this subtree.
	pending []pendingCopy
}

type pendingCopy struct {
	gen  Generation
	left int
}

func (g *openGen) markCoded(ids []event.ID) {
	for _, id := range ids {
		if _, ok := g.recent[id]; ok {
			continue
		}
		if len(g.recentOrder) >= recentCap {
			evict := g.recentOrder[0]
			g.recentOrder = g.recentOrder[1:]
			delete(g.recent, evict)
		}
		g.recent[id] = struct{}{}
		g.recentOrder = append(g.recentOrder, id)
	}
}

// NewEncoder builds an encoder for (k, r). Panics on parameters NewCode
// rejects — the facade validates user input before it gets here.
func NewEncoder(k, r int) *Encoder {
	if _, err := NewCode(k, r); err != nil {
		panic(err.Error())
	}
	return &Encoder{k: k, r: r, codes: make(map[int]*Code), keys: make(map[string]*openGen)}
}

// Add accumulates one round envelope's gossips into the key's open
// generation and returns every generation that should ride this envelope:
// replica copies owed from earlier flushes toward this subtree, an aged
// short flush if the open generation waited past piggybackAge, and any
// generation the new events just filled. Events already coded for this
// key (recent window) or already waiting in its open generation are
// skipped — their symbol is unchanged, so a slot or a past repair already
// protects them. With r = 0 the encoder is inert and returns nil.
func (e *Encoder) Add(key string, srcs []Source) []Generation {
	if e.r == 0 {
		return nil
	}
	g := e.keys[key]
	if g == nil {
		if len(srcs) == 0 {
			return nil
		}
		if len(e.order) >= maxKeys {
			evict := e.order[0]
			e.order = e.order[1:]
			delete(e.keys, evict)
		}
		g = &openGen{born: e.round, recent: make(map[event.ID]struct{})}
		e.keys[key] = g
		e.order = append(e.order, key)
	}
	var out []Generation
	keep := g.pending[:0]
	for i := range g.pending {
		p := &g.pending[i]
		out = append(out, p.gen)
		if p.left--; p.left > 0 {
			keep = append(keep, *p)
		}
	}
	g.pending = keep
	if len(g.srcs) > 0 && e.round-g.born >= piggybackAge {
		out = append(out, e.flushOpen(g))
	}
	for _, s := range srcs {
		if _, coded := g.recent[s.ID]; coded {
			continue
		}
		dup := false
		for _, have := range g.srcs {
			if have.ID == s.ID {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if len(g.srcs) == 0 {
			g.born = e.round
		}
		g.srcs = append(g.srcs, s)
		if len(g.srcs) == e.k {
			out = append(out, e.flushOpen(g))
		}
	}
	return out
}

// flushOpen codes the key's open generation, queues its replica rides,
// and returns the copy for the current envelope.
func (e *Encoder) flushOpen(g *openGen) Generation {
	gen := e.encodeGeneration(g.srcs)
	g.markCoded(gen.IDs)
	g.srcs = g.srcs[:0]
	if genCopies > 1 {
		g.pending = append(g.pending, pendingCopy{gen: gen, left: genCopies - 1})
	}
	return gen
}

// KeyGens is one routing key's flushed generations, as returned by
// FlushAged.
type KeyGens struct {
	Key  string
	Gens []Generation
}

// FlushAged advances the encoder's round clock and flushes every open
// generation that has waited maxAge or more rounds without an envelope to
// piggyback on, in key insertion order. The caller invokes it once per
// gossip round and ships each key's generations toward that subtree; a
// non-empty result means traffic toward the subtree went quiet and the
// trailing events would otherwise lose their protection.
func (e *Encoder) FlushAged(maxAge int) []KeyGens {
	if e.r == 0 {
		e.round++
		return nil
	}
	var out []KeyGens
	for _, key := range e.order {
		g := e.keys[key]
		if g == nil || len(g.srcs) == 0 || e.round-g.born < maxAge {
			continue
		}
		out = append(out, KeyGens{Key: key, Gens: []Generation{e.flushOpen(g)}})
	}
	e.round++
	return out
}

// Encode codes a set of sources immediately, splitting into generations of
// at most k — the stateless path, used by tests and by senders that manage
// their own grouping. With r = 0 (or no sources) it returns nil.
func (e *Encoder) Encode(srcs []Source) []Generation {
	if e.r == 0 || len(srcs) == 0 {
		return nil
	}
	gens := make([]Generation, 0, (len(srcs)+e.k-1)/e.k)
	for start := 0; start < len(srcs); start += e.k {
		end := start + e.k
		if end > len(srcs) {
			end = len(srcs)
		}
		gens = append(gens, e.encodeGeneration(srcs[start:end]))
	}
	return gens
}

func (e *Encoder) encodeGeneration(srcs []Source) Generation {
	k := len(srcs)
	symLen := 0
	for _, s := range srcs {
		if n := SymbolLen(s.Body); n > symLen {
			symLen = n
		}
	}
	for len(e.scratch) < k {
		e.scratch = append(e.scratch, nil)
	}
	sym := e.scratch[:k]
	ids := make([]event.ID, k)
	meta := make([]Meta, k)
	for i, s := range srcs {
		if cap(sym[i]) < symLen {
			sym[i] = make([]byte, symLen)
		}
		sym[i] = sym[i][:symLen]
		PackSymbol(sym[i], s.Body)
		ids[i] = s.ID
		meta[i] = s.Meta
	}
	code := e.codes[k]
	if code == nil {
		code, _ = NewCode(k, e.r)
		e.codes[k] = code
	}
	repairData := make([]byte, e.r*symLen)
	repairs := make([]RepairSymbol, e.r)
	shards := make([][]byte, e.r)
	for x := 0; x < e.r; x++ {
		shards[x] = repairData[x*symLen : (x+1)*symLen]
		repairs[x] = RepairSymbol{Index: x, Data: shards[x]}
	}
	code.EncodeInto(shards, sym)
	gen := Generation{
		Gen:     e.nextGen,
		K:       k,
		R:       e.r,
		SymLen:  symLen,
		IDs:     ids,
		Meta:    meta,
		Repairs: repairs,
	}
	e.nextGen++
	return gen
}
