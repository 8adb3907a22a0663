package fec

import "pmcast/internal/event"

// Encoder codes sources into generations: the stateless half of the sender
// side, which the Coder drives with the subtree groups it accumulates. It
// numbers generations in the order it codes them and keeps one Code per
// generation size (short flushes use (k', r)) and the padded symbol buffers,
// reused across calls.
type Encoder struct {
	k, r    int
	nextGen uint64
	codes   map[int]*Code
	scratch [][]byte
}

// NewEncoder builds an encoder for (k, r). Panics on parameters NewCode
// rejects — the facade validates user input before it gets here.
func NewEncoder(k, r int) *Encoder {
	if _, err := NewCode(k, r); err != nil {
		panic(err.Error())
	}
	return &Encoder{k: k, r: r, codes: make(map[int]*Code)}
}

// Encode codes a set of sources, splitting them into generations of at most
// k. With r = 0 (or no sources) it returns nil.
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
