package fec

import (
	"errors"

	"pmcast/internal/binenc"
	"pmcast/internal/event"
)

// A generation is one coded group of gossips from one sender to one peer:
// k source symbols (the canonical event encodings of k gossips, which
// travel as ordinary gossip sections) plus r repair symbols that ride the
// batch's FEC piggyback section. The sender accumulates a generation per
// peer across gossip rounds until it holds k distinct events, so one repair
// symbol amortizes over a full generation rather than a single round's
// often-tiny send.
//
// Symbols are the event bytes, not the whole gossip body: a retransmitted
// gossip re-sends the same event under a different round counter, and
// coding the invariant part is what lets a repair emitted rounds later
// still match the copies the receiver cached. The per-gossip routing
// metadata (depth, rate, round) rides the generation header instead, one
// entry per source, so a recovered event can be folded back into the
// protocol as a full gossip.
//
// Symbols are equal-length byte strings: each event body is framed as
// uvarint(len) ‖ body and zero-padded to the generation's SymLen, so
// receivers can rebuild source symbols from the gossips they did receive
// and strip the padding from recovered ones.

// Meta is the non-event remainder of a gossip — what the receiver needs to
// resume disseminating a recovered event.
type Meta struct {
	Depth int
	Rate  float64
	Round int
}

// Source is one gossip presented to the encoder: its identity, its routing
// metadata, and its canonical event bytes (the symbol payload). Body must
// not be mutated after it is handed to the encoder.
type Source struct {
	ID   event.ID
	Meta Meta
	Body []byte
}

// RepairSymbol is one coded symbol within a generation.
type RepairSymbol struct {
	// Index is the repair row in [0, r); global symbol index is K+Index.
	Index int
	// Data is the SymLen-byte coded payload.
	Data []byte
}

// Generation describes one coded group as framed on the wire: the identity
// and routing metadata of its k source gossips (in symbol order) and the
// repair symbols that travel alongside them.
type Generation struct {
	// Gen is the sender-local generation sequence number; (sender, Gen)
	// keys partial generations on the receiver.
	Gen uint64
	// K is the source-symbol count.
	K int
	// R is the code's total repair count — carried so receivers derive the
	// same coefficient rows even when only some repair symbols arrive (the
	// r = 1 XOR row differs from the Vandermonde rows used for r ≥ 2).
	R int
	// SymLen is the common symbol length in bytes.
	SymLen int
	// IDs lists the source events in symbol order (len K).
	IDs []event.ID
	// Meta carries each source's routing metadata, parallel to IDs.
	Meta []Meta
	// Repairs holds the repair symbols present in this envelope.
	Repairs []RepairSymbol
}

// RepairBytes sums the repair payload bytes carried by the generation.
func (g Generation) RepairBytes() int {
	n := 0
	for _, rs := range g.Repairs {
		n += len(rs.Data)
	}
	return n
}

// SymbolLen returns the framed length of an event body as a symbol, before
// padding: the uvarint length prefix plus the body itself.
func SymbolLen(body []byte) int {
	return binenc.UvarintLen(uint64(len(body))) + len(body)
}

// PackSymbol writes the framed body into buf (length = the generation's
// SymLen) and zeroes the tail. buf must hold at least SymbolLen(body).
func PackSymbol(buf, body []byte) {
	n := len(binenc.AppendUvarint(buf[:0], uint64(len(body))))
	copy(buf[n:], body)
	for i := n + len(body); i < len(buf); i++ {
		buf[i] = 0
	}
}

// ErrBadSymbol reports a recovered symbol whose framing is inconsistent
// (length prefix overruns the symbol).
var ErrBadSymbol = errors.New("fec: malformed recovered symbol")

// UnpackSymbol strips the length framing from a recovered symbol and
// returns the event body (aliasing sym, no copy).
func UnpackSymbol(sym []byte) ([]byte, error) {
	r := binenc.NewReader(sym)
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, ErrBadSymbol
	}
	rest := sym[len(sym)-r.Len():]
	if n > uint64(len(rest)) {
		return nil, ErrBadSymbol
	}
	return rest[:n], nil
}
