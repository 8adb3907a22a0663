// Package wire frames pmcast protocol messages into a compact binary format
// so the runtime can run over a real byte-oriented transport (UDP/TCP). The
// in-memory transport passes Go values directly; this codec is the seam a
// production deployment plugs a socket into.
//
// There is one frame, the Batch: everything a node sends one peer at once —
// the gossips it owes it this round, the repair symbols coding them, and the
// membership messages (update, digest, heartbeat, join request, leave) that
// would otherwise each cost an envelope. A frame is one flags byte — a bit
// per section, and one for a gossip count — followed by exactly the sections
// it flags, in canonical order. All integers are varints, floats IEEE 754
// little-endian, collections length-prefixed (package binenc). Encoders are
// append-style so hot paths reuse buffers (GetBuffer/PutBuffer); the Decoder
// type interns repeated strings so steady-state decoding stays within one
// allocation per event.
package wire

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"pmcast/internal/addr"
	"pmcast/internal/binenc"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/fec"
	"pmcast/internal/interest"
	"pmcast/internal/membership"
)

// Decoding errors.
var (
	ErrUnknownKind = errors.New("wire: unknown message kind")
	ErrBadPayload  = errors.New("wire: malformed payload")
	ErrOversized   = errors.New("wire: gossip exceeds the datagram budget")
)

// Flag bits, one per section, in the order the frame lays the sections out.
// hasGossips alone announces one gossip section; with hasCount, a count of
// two or more precedes the sections, so a gossip alone costs its flags byte
// and nothing else. A heartbeat's section is empty: its bit is all it sends.
const (
	hasGossips byte = 1 << iota
	hasCount
	hasFEC
	hasUpdate
	hasDigest
	hasHeartbeat
	hasJoin
	hasLeave
)

// Batch is one per-peer envelope, and the only frame: the multi-event gossip
// section plus whatever membership messages go to the same peer at the same
// time. It crosses every fabric as one envelope. The canonical sub-message
// order — gossips, repair symbols, update, digest, heartbeat, join, leave —
// is the order the frame lays them out, a simulated fabric asks their fates
// (Surviving) and a receiver processes them in.
type Batch struct {
	Gossips []core.Gossip
	// FEC carries the repair symbols of the coded-gossip extension: each
	// generation codes a run of this round's gossip sections, and any k of
	// its k+r symbols reconstruct the originals on the receiver.
	FEC       []fec.Generation
	Update    *membership.Update
	Digest    *membership.Digest
	Heartbeat *membership.Heartbeat
	Join      *membership.JoinRequest
	Leave     *membership.Leave
}

// Repairs returns the number of repair symbols carried.
func (b Batch) Repairs() int {
	n := 0
	for _, g := range b.FEC {
		n += len(g.Repairs)
	}
	return n
}

// Parts returns the number of sub-messages carried. Each repair symbol
// counts as one part: fault draws and drop accounting are per sub-message.
func (b Batch) Parts() int {
	return len(b.Gossips) + b.Repairs() + bits.OnesCount8(flagsOf(b)&^(hasGossips|hasCount|hasFEC))
}

// tail returns the batch's membership sections alone: what rides the first
// chunk of a split.
func (b Batch) tail() Batch {
	return Batch{Update: b.Update, Digest: b.Digest, Heartbeat: b.Heartbeat, Join: b.Join, Leave: b.Leave}
}

// Surviving asks lost for the fate of every sub-message in canonical order
// (repair is true for a repair symbol) and returns the round envelope a lossy
// link hands over: b itself when nothing was lost, otherwise a copy holding
// the survivors in the same order. The copy shares the parts it keeps, but
// b's slices are never written — the sender may still be encoding them. A
// generation keeps its header with the symbols that survived; one with none
// left is dropped.
func (b Batch) Surviving(lost func(repair bool) bool) Batch {
	kept := b
	kept.Gossips = surviving(b.Gossips, lost, false)
	shared := true
	for i, g := range b.FEC {
		reps := surviving(g.Repairs, lost, true)
		if len(reps) == len(g.Repairs) {
			if !shared {
				kept.FEC = append(kept.FEC, g)
			}
			continue
		}
		if shared {
			kept.FEC = append(make([]fec.Generation, 0, len(b.FEC)), b.FEC[:i]...)
			shared = false
		}
		if len(reps) > 0 {
			g.Repairs = reps
			kept.FEC = append(kept.FEC, g)
		}
	}
	lose(&kept.Update, lost)
	lose(&kept.Digest, lost)
	lose(&kept.Heartbeat, lost)
	lose(&kept.Join, lost)
	lose(&kept.Leave, lost)
	return kept
}

// lose asks the fate of one membership section, when present, and clears it
// when lost.
func lose[T any](p **T, lost func(repair bool) bool) {
	if *p != nil && lost(false) {
		*p = nil
	}
}

// surviving is Surviving over one section: s itself when every element was
// kept, a fresh slice of the survivors otherwise.
func surviving[T any](s []T, lost func(repair bool) bool, repair bool) []T {
	kept, shared := s, true
	for i := range s {
		switch {
		case lost(repair):
			if shared {
				kept, shared = append(make([]T, 0, len(s)-1), s[:i]...), false
			}
		case !shared:
			kept = append(kept, s[i])
		}
	}
	return kept
}

// Buffer pooling: hot paths (per-round batch encodes, UDP datagram assembly)
// borrow scratch buffers instead of allocating per message.

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// GetBuffer borrows a zero-length scratch buffer from the codec pool.
func GetBuffer() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuffer returns a scratch buffer to the pool, keeping its grown capacity.
func PutBuffer(b *[]byte) {
	*b = (*b)[:0]
	bufPool.Put(b)
}

// Encode frames one message into a fresh buffer. A message is a Batch, or a
// bare core.Gossip, which frames as the batch of one it is. Hot paths should
// prefer AppendMessage with a pooled buffer.
func Encode(msg any) ([]byte, error) {
	return AppendMessage(nil, msg)
}

// AppendMessage appends the frame of one message to b, the allocation-free
// counterpart of Encode.
func AppendMessage(b []byte, msg any) ([]byte, error) {
	switch m := msg.(type) {
	case Batch:
		return AppendBatch(b, m), nil
	case core.Gossip:
		return appendGossipBody(append(b, hasGossips), m), nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnknownKind, msg)
	}
}

// AppendBatch appends a batch frame: the flags byte, then the sections it
// flags — the gossip count when there are two or more, the gossip sections,
// the repair-symbol section, then the membership sections. A gossip section
// needs no length prefix: its event's encoding delimits itself, and the
// round metadata after it has a fixed shape.
func AppendBatch(b []byte, m Batch) []byte {
	b = append(b, flagsOf(m))
	if len(m.Gossips) > 1 {
		b = binenc.AppendUvarint(b, uint64(len(m.Gossips)))
	}
	for _, g := range m.Gossips {
		b = appendGossipBody(b, g)
	}
	if len(m.FEC) > 0 {
		b = appendFECSection(b, m.FEC)
	}
	return appendBatchTail(b, m)
}

// flagsOf returns the flags byte of m's frame.
func flagsOf(m Batch) byte {
	return flag(len(m.Gossips) > 0, hasGossips) | flag(len(m.Gossips) > 1, hasCount) |
		flag(len(m.FEC) > 0, hasFEC) | flag(m.Update != nil, hasUpdate) | flag(m.Digest != nil, hasDigest) |
		flag(m.Heartbeat != nil, hasHeartbeat) | flag(m.Join != nil, hasJoin) | flag(m.Leave != nil, hasLeave)
}

// flag is bit when set, 0 otherwise.
func flag(set bool, bit byte) byte {
	if set {
		return bit
	}
	return 0
}

// appendFECSection appends the repair-symbol section: a generation count,
// then per generation its header (sequence number, code shape, symbol
// length, the source event IDs with their routing metadata in symbol
// order) and the repair symbols present in this envelope.
func appendFECSection(b []byte, gens []fec.Generation) []byte {
	b = binenc.AppendUvarint(b, uint64(len(gens)))
	for _, g := range gens {
		b = binenc.AppendUvarint(b, g.Gen)
		b = binenc.AppendUvarint(b, uint64(g.K))
		b = binenc.AppendUvarint(b, uint64(g.R))
		b = binenc.AppendUvarint(b, uint64(g.SymLen))
		for i, id := range g.IDs {
			b = event.AppendID(b, id)
			m := g.Meta[i]
			b = binenc.AppendUvarint(b, uint64(m.Depth))
			b = binenc.AppendFloat(b, m.Rate)
			b = binenc.AppendUvarint(b, uint64(m.Round))
		}
		b = binenc.AppendUvarint(b, uint64(len(g.Repairs)))
		for _, rs := range g.Repairs {
			b = binenc.AppendUvarint(b, uint64(rs.Index))
			b = append(b, rs.Data...)
		}
	}
	return b
}

// FECSectionSize returns the exact encoded size of the repair-symbol
// section, computed without encoding — the size-walk counterpart of
// appendFECSection used by batch sizing and MTU splitting.
func FECSectionSize(gens []fec.Generation) int {
	n := binenc.UvarintLen(uint64(len(gens)))
	for _, g := range gens {
		n += generationSize(g)
	}
	return n
}

// generationSize is the encoded size of one generation entry within the
// FEC section.
func generationSize(g fec.Generation) int {
	n := binenc.UvarintLen(g.Gen) +
		binenc.UvarintLen(uint64(g.K)) +
		binenc.UvarintLen(uint64(g.R)) +
		binenc.UvarintLen(uint64(g.SymLen)) +
		binenc.UvarintLen(uint64(len(g.Repairs)))
	for i, id := range g.IDs {
		m := g.Meta[i]
		n += event.IDWireSize(id) +
			binenc.UvarintLen(uint64(m.Depth)) +
			8 + // rate, IEEE 754 double
			binenc.UvarintLen(uint64(m.Round))
	}
	for _, rs := range g.Repairs {
		n += binenc.UvarintLen(uint64(rs.Index)) + len(rs.Data)
	}
	return n
}

// readFECSection reads the repair-symbol section. Counts and lengths are
// validated against the remaining frame before any allocation, and symbol
// payloads are copied out of the decoder's scratch buffer.
func readFECSection(r *binenc.Reader) ([]fec.Generation, error) {
	count := r.Count(6)
	if err := r.Err(); err != nil {
		return nil, err
	}
	gens := make([]fec.Generation, 0, count)
	for i := 0; i < count; i++ {
		g := fec.Generation{Gen: r.Uvarint()}
		k := r.Uvarint()
		rr := r.Uvarint()
		symLen := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if k < 1 || rr < 1 || k+rr > fec.MaxSymbols {
			return nil, fmt.Errorf("%w: FEC generation shape k=%d r=%d", ErrBadPayload, k, rr)
		}
		g.K, g.R, g.SymLen = int(k), int(rr), int(symLen)
		g.IDs = make([]event.ID, g.K)
		g.Meta = make([]fec.Meta, g.K)
		for j := range g.IDs {
			g.IDs[j] = event.ReadID(r)
			g.Meta[j] = fec.Meta{
				Depth: int(r.Uvarint()),
				Rate:  r.Float(),
				Round: int(r.Uvarint()),
			}
		}
		reps := r.Count(1)
		if err := r.Err(); err != nil {
			return nil, err
		}
		if reps > int(rr) {
			return nil, fmt.Errorf("%w: %d repairs for an r=%d generation", ErrBadPayload, reps, rr)
		}
		g.Repairs = make([]fec.RepairSymbol, 0, reps)
		var seen [fec.MaxSymbols]bool
		for j := 0; j < reps; j++ {
			idx := r.Uvarint()
			if r.Err() == nil && (idx >= rr || seen[idx]) {
				return nil, fmt.Errorf("%w: FEC repair index %d out of range or repeated", ErrBadPayload, idx)
			}
			if r.Err() == nil && uint64(r.Len()) < symLen {
				return nil, fmt.Errorf("%w: FEC symbol overruns frame", ErrBadPayload)
			}
			seen[idx] = true
			g.Repairs = append(g.Repairs, fec.RepairSymbol{Index: int(idx), Data: r.Raw(int(symLen))})
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		gens = append(gens, g)
	}
	return gens, nil
}

// appendBatchTail appends the membership sections in flag order. A
// heartbeat's section is empty: its flag is all it sends.
func appendBatchTail(b []byte, m Batch) []byte {
	if m.Update != nil {
		b = appendUpdateBody(b, *m.Update)
	}
	if m.Digest != nil {
		b = appendDigestBody(b, *m.Digest)
	}
	if m.Join != nil {
		b = appendRecord(b, m.Join.Joiner)
		b = binenc.AppendUvarint(b, uint64(m.Join.Hops))
	}
	if m.Leave != nil {
		b = addr.AppendAddress(b, m.Leave.Addr)
		b = binenc.AppendUvarint(b, m.Leave.Stamp)
	}
	return b
}

// gossipSize returns the exact encoded size of one gossip section, computed
// without encoding.
func gossipSize(g core.Gossip) int {
	return event.WireSize(g.Event) +
		binenc.UvarintLen(uint64(g.Depth)) +
		8 + // rate, IEEE 754 double
		binenc.UvarintLen(uint64(g.Round))
}

// EncodedSize returns the framed size of a message in bytes: the size walk
// of AppendMessage. Nothing is encoded and nothing allocated, so senders
// account every envelope. Unknown types size to zero.
func EncodedSize(msg any) int {
	switch m := msg.(type) {
	case Batch:
		n := 1 + countSize(len(m.Gossips)) + fecContribution(m.FEC) + batchTailSize(m)
		for _, g := range m.Gossips {
			n += gossipSize(g)
		}
		return n
	case core.Gossip:
		return 1 + gossipSize(m)
	default:
		return 0
	}
}

// countSize is the size of the gossip count of a frame of n gossips: none
// below two.
func countSize(n int) int {
	if n < 2 {
		return 0
	}
	return binenc.UvarintLen(uint64(n))
}

// batchTailSize is the size walk of appendBatchTail.
func batchTailSize(m Batch) int {
	n := 0
	if m.Update != nil {
		n += updateBodySize(*m.Update)
	}
	if m.Digest != nil {
		n += digestBodySize(*m.Digest)
	}
	if m.Join != nil {
		n += recordSize(m.Join.Joiner) + binenc.UvarintLen(uint64(m.Join.Hops))
	}
	if m.Leave != nil {
		n += addr.WireSize(m.Leave.Addr) + binenc.UvarintLen(m.Leave.Stamp)
	}
	return n
}

// SplitBatch partitions a batch into sub-batches whose encoded frames each
// fit within limit bytes — the datagram MTU seam of the UDP fabric. The
// membership sections ride the first sub-batch; gossips fill greedily; repair
// symbols then pack into whatever room the chunks have left, spilling into
// trailing chunks of their own (a generation's header repeats in every chunk
// that carries one of its symbols, and receivers key partial generations by
// sequence number, so the split is invisible to reassembly). A batch whose
// single gossip, single repair symbol, or membership sections alone cannot
// fit returns ErrOversized.
func SplitBatch(m Batch, limit int) ([]Batch, error) {
	if s := EncodedSize(m); s <= limit {
		return []Batch{m}, nil
	}
	base := m
	base.FEC = nil
	out, err := splitUncoded(base, limit)
	if err != nil {
		return nil, err
	}
	return packRepairs(out, m.FEC, limit)
}

// splitUncoded splits the gossip sections and membership sections across
// chunks.
func splitUncoded(m Batch, limit int) ([]Batch, error) {
	if m.Parts() == 0 {
		return nil, nil
	}
	if s := EncodedSize(m); s <= limit {
		return []Batch{m}, nil
	}
	cur := m.tail() // the first chunk starts with the membership sections
	tailSize := batchTailSize(m)
	if cur.Parts() > 0 && 1+tailSize > limit {
		// The membership sections alone bust the budget; no gossip packing can
		// fix that, and emitting an oversized first chunk would break the
		// documented contract.
		return nil, fmt.Errorf("%w: membership sections need %d bytes against a %d-byte limit",
			ErrOversized, 1+tailSize, limit)
	}
	// chunkSize is the exact encoded size of one sub-batch: the flags byte,
	// the chunk's own gossip count (absent for one gossip, and growing with
	// the chunk, not the original batch — modeling it any other way is an
	// off-by-one at the 128-gossip boundary), the gossip sections, and the
	// membership sections when this chunk carries them.
	chunkSize := func(count, sumNeed int, withTail bool) int {
		n := 1 + countSize(count) + sumNeed
		if withTail {
			n += tailSize
		}
		return n
	}
	var out []Batch
	curTail := cur.Parts() > 0
	sumNeed := 0
	for _, g := range m.Gossips {
		need := gossipSize(g)
		if chunkSize(1, need, false) > limit {
			return nil, fmt.Errorf("%w: %d bytes against a %d-byte limit",
				ErrOversized, chunkSize(1, need, false), limit)
		}
		if chunkSize(len(cur.Gossips)+1, sumNeed+need, curTail) > limit {
			// cur always has at least one part here: either the membership
			// sections (first chunk) or the gossip admitted by the standalone
			// check above.
			out = append(out, cur)
			cur, curTail, sumNeed = Batch{}, false, 0
		}
		cur.Gossips = append(cur.Gossips, g)
		sumNeed += need
	}
	if cur.Parts() > 0 {
		out = append(out, cur)
	}
	return out, nil
}

// fecContribution is the FEC section's share of a chunk's encoded size:
// zero when absent (the flag bit is clear and no section is framed).
func fecContribution(gens []fec.Generation) int {
	if len(gens) == 0 {
		return 0
	}
	return FECSectionSize(gens)
}

// addRepair returns gens with one repair symbol added, opening a fresh
// per-chunk generation entry (header copied from g, repairs of its own) on
// first sight so chunks never alias the original batch's symbol slices.
func addRepair(gens []fec.Generation, g fec.Generation, rs fec.RepairSymbol) []fec.Generation {
	for i := range gens {
		if gens[i].Gen == g.Gen {
			gens[i].Repairs = append(gens[i].Repairs, rs)
			return gens
		}
	}
	return append(gens, fec.Generation{
		Gen: g.Gen, K: g.K, R: g.R, SymLen: g.SymLen, IDs: g.IDs, Meta: g.Meta,
		Repairs: []fec.RepairSymbol{rs},
	})
}

// packRepairs distributes every repair symbol across the already-split
// chunks, first-fit in chunk order, growing trailing chunks when nothing
// has room. Chunk sizes are tracked exactly via the same size walk the
// encoder uses, so no chunk can exceed the limit by even one byte.
func packRepairs(out []Batch, gens []fec.Generation, limit int) ([]Batch, error) {
	if len(gens) == 0 {
		return out, nil
	}
	sizes := make([]int, len(out))
	for i, c := range out {
		sizes[i] = EncodedSize(c)
	}
	for _, g := range gens {
		for _, rs := range g.Repairs {
			placed := false
			for c := range out {
				cand := addRepair(append([]fec.Generation(nil), out[c].FEC...), g, rs)
				newSize := sizes[c] - fecContribution(out[c].FEC) + fecContribution(cand)
				if newSize <= limit {
					out[c].FEC = cand
					sizes[c] = newSize
					placed = true
					break
				}
			}
			if placed {
				continue
			}
			nb := Batch{FEC: addRepair(nil, g, rs)}
			ns := EncodedSize(nb)
			if ns > limit {
				return nil, fmt.Errorf("%w: repair symbol needs %d bytes against a %d-byte limit",
					ErrOversized, ns, limit)
			}
			out = append(out, nb)
			sizes = append(sizes, ns)
		}
	}
	return out, nil
}

// Decoder unframes messages with decoder-scratch reuse: repeated strings
// (event origins, attribute names, membership keys) are interned across
// frames, so steady-state decoding allocates only per-event storage. A
// Decoder is not safe for concurrent use: each goroutine that decodes needs
// its own.
type Decoder struct {
	intern *binenc.Interner
	r      binenc.Reader
}

// NewDecoder returns a decoder with a fresh intern table.
func NewDecoder() *Decoder {
	return &Decoder{intern: binenc.NewInterner()}
}

// Decode unframes one batch, reusing the decoder's scratch state. Nothing it
// returns aliases data.
func (d *Decoder) Decode(data []byte) (Batch, error) {
	d.r.Reset(data)
	d.r.SetIntern(d.intern)
	b, err := readBatch(&d.r)
	if err != nil {
		return Batch{}, err
	}
	return b, finish(&d.r)
}

// Section is one gossip section of a received frame, validated but not
// built: the event's ID and bytes, and the round metadata the section
// carried. Origin and Body alias the frame DecodeLazy copied.
type Section struct {
	Origin []byte
	Seq    uint64
	Body   []byte // the event's bytes as the frame carried them; Decoder.Event builds it
	Depth  int
	Rate   float64
	Round  int
}

// Round is a batch as DecodeLazy returns it: the gossip sections validated
// but not built, and the rest of the batch decoded as Decode decodes it
// (Batch.Gossips is nil).
type Round struct {
	Sections []Section
	Batch    Batch
}

// DecodeLazy unframes one batch as Decode does, except that its gossip
// sections are scanned, not built. A receiver that already holds most of
// what arrives then builds only the events it lacks (Event). It rejects a
// frame on exactly the inputs Decode rejects, and, like Decode, returns
// nothing that aliases data: a frame that flags gossip sections is copied
// once, and the sections alias the copy.
func (d *Decoder) DecodeLazy(data []byte) (Round, error) {
	if len(data) == 0 || data[0]&hasGossips == 0 {
		b, err := d.Decode(data)
		return Round{Batch: b}, err
	}
	frame := append([]byte(nil), data...)
	d.r.Reset(frame)
	d.r.SetIntern(d.intern)
	rd, err := scanBatch(&d.r, frame)
	if err != nil {
		return Round{}, err
	}
	return rd, finish(&d.r)
}

// Event builds the event of one section's Body through the decoder's intern
// table. A body DecodeLazy scanned always builds.
func (d *Decoder) Event(body []byte) (event.Event, error) {
	d.r.Reset(body)
	d.r.SetIntern(d.intern)
	ev := event.ReadEvent(&d.r)
	if err := finish(&d.r); err != nil {
		return event.Event{}, err
	}
	return ev, nil
}

// scanBatch is readBatch with the gossip sections scanned into a Round
// instead of built; buf is the buffer r reads.
func scanBatch(r *binenc.Reader, buf []byte) (Round, error) {
	flags, n, err := readBatchHead(r)
	if err != nil {
		return Round{}, err
	}
	var rd Round
	if n > 0 {
		rd.Sections = make([]Section, 0, n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		rd.Sections = append(rd.Sections, scanGossipBody(r, buf))
	}
	return rd, readBatchTail(r, flags, &rd.Batch)
}

func readBatch(r *binenc.Reader) (Batch, error) {
	flags, n, err := readBatchHead(r)
	if err != nil {
		return Batch{}, err
	}
	var b Batch
	if n > 0 {
		b.Gossips = make([]core.Gossip, 0, n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		b.Gossips = append(b.Gossips, readGossipBody(r))
	}
	return b, readBatchTail(r, flags, &b)
}

// minGossipSize bounds a gossip section from below — an event ID and an
// attribute count, depth, rate and round — so a forged count cannot size an
// allocation the frame could not fill.
const minGossipSize = 3 + 1 + 8 + 1

// readBatchHead reads a frame's flags and how many gossip sections follow:
// none, one, or the count the frame carries, which is then at least two.
func readBatchHead(r *binenc.Reader) (flags byte, sections int, err error) {
	flags = r.Byte()
	if err := r.Err(); err != nil {
		return 0, 0, fmt.Errorf("%w: empty frame", ErrBadPayload)
	}
	switch flags & (hasGossips | hasCount) {
	case 0:
		return flags, 0, nil
	case hasGossips:
		return flags, 1, nil
	case hasCount:
		// Reserved: a later section announces a second flags byte this way
		// (DESIGN.md "The batch frame").
		return 0, 0, fmt.Errorf("%w: a gossip count without gossips", ErrBadPayload)
	}
	if sections = r.Count(minGossipSize); sections < 2 && r.Err() == nil {
		return 0, 0, fmt.Errorf("%w: a gossip count of %d", ErrBadPayload, sections)
	}
	return flags, sections, nil
}

// readBatchTail reads what follows a batch's gossip sections — the repair
// symbols and the membership sections its flags announce — into b.
func readBatchTail(r *binenc.Reader, flags byte, b *Batch) error {
	if flags&hasFEC != 0 {
		gens, err := readFECSection(r)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadPayload, err)
		}
		b.FEC = gens
	}
	if flags&hasUpdate != 0 {
		u := readUpdateBody(r)
		b.Update = &u
	}
	if flags&hasDigest != 0 {
		d := readDigestBody(r)
		b.Digest = &d
	}
	if flags&hasHeartbeat != 0 {
		b.Heartbeat = &membership.Heartbeat{}
	}
	if flags&hasJoin != 0 {
		jr := membership.JoinRequest{Joiner: readRecord(r)}
		jr.Hops = int(r.Uvarint())
		b.Join = &jr
	}
	if flags&hasLeave != 0 {
		b.Leave = &membership.Leave{Addr: addr.ReadAddress(r), Stamp: r.Uvarint()}
	}
	return nil
}

func appendGossipBody(b []byte, g core.Gossip) []byte {
	b = event.AppendEvent(b, g.Event)
	b = binenc.AppendUvarint(b, uint64(g.Depth))
	b = binenc.AppendFloat(b, g.Rate)
	return binenc.AppendUvarint(b, uint64(g.Round))
}

// AppendEventBody appends one event's canonical bytes without flags or
// length prefix — the symbol payload of the coding layer, which codes
// events exactly as gossip sections carry them. Event bytes are invariant
// across retransmissions (the per-round gossip metadata rides the
// generation header instead), which is what lets a repair emitted rounds
// later still match the copies a receiver cached.
func AppendEventBody(b []byte, ev event.Event) []byte {
	return event.AppendEvent(b, ev)
}

func readGossipBody(r *binenc.Reader) core.Gossip {
	return core.Gossip{
		Event: event.ReadEvent(r),
		Depth: int(r.Uvarint()),
		Rate:  r.Float(),
		Round: int(r.Uvarint()),
	}
}

// scanGossipBody is readGossipBody with the event scanned, not built; buf is
// the buffer r reads, which the section's Origin and Body alias.
func scanGossipBody(r *binenc.Reader, buf []byte) Section {
	start := len(buf) - r.Len()
	s := Section{}
	s.Origin, s.Seq = event.ScanEvent(r)
	s.Body = buf[start : len(buf)-r.Len()]
	s.Depth = int(r.Uvarint())
	s.Rate = r.Float()
	s.Round = int(r.Uvarint())
	return s
}

func appendDigestBody(b []byte, m membership.Digest) []byte {
	b = addr.AppendAddress(b, m.From)
	b = binenc.AppendUvarint(b, m.Hash)
	b = binenc.AppendUvarint(b, uint64(m.Count))
	b = binenc.AppendUvarint(b, uint64(m.Len()))
	for e := range m.Lines {
		b = binenc.AppendString(b, e.Key)
		b = binenc.AppendUvarint(b, e.Stamp)
		b = binenc.AppendBool(b, e.Alive)
	}
	return b
}

// digestBodySize is the size walk of appendDigestBody. The lines are sized by
// the digest itself, which knows its form: a full digest of a roster-mode
// sender costs its overlay, not the roster.
func digestBodySize(m membership.Digest) int {
	return addr.WireSize(m.From) +
		binenc.UvarintLen(m.Hash) +
		binenc.UvarintLen(uint64(m.Count)) +
		binenc.UvarintLen(uint64(m.Len())) +
		m.LinesWireSize()
}

func readDigestBody(r *binenc.Reader) membership.Digest {
	d := membership.Digest{From: addr.ReadAddress(r)}
	d.Hash = r.Uvarint()
	d.Count = int(r.Uvarint())
	n := r.Count(2)
	if n > 0 {
		d.Entries = make([]membership.DigestEntry, 0, n)
	}
	for i := 0; i < n; i++ {
		d.Entries = append(d.Entries, membership.DigestEntry{
			Key:   r.String(),
			Stamp: r.Uvarint(),
			Alive: r.Bool(),
		})
	}
	return d
}

func appendUpdateBody(b []byte, m membership.Update) []byte {
	b = addr.AppendAddress(b, m.From)
	b = binenc.AppendUvarint(b, uint64(len(m.Records)))
	for _, rec := range m.Records {
		b = appendRecord(b, rec)
	}
	return b
}

// updateBodySize is the size walk of appendUpdateBody.
func updateBodySize(m membership.Update) int {
	n := addr.WireSize(m.From) + binenc.UvarintLen(uint64(len(m.Records)))
	for i := range m.Records {
		n += recordSize(m.Records[i])
	}
	return n
}

func readUpdateBody(r *binenc.Reader) membership.Update {
	u := membership.Update{From: addr.ReadAddress(r)}
	n := r.Count(3)
	u.Records = make([]membership.Record, 0, n)
	for i := 0; i < n; i++ {
		u.Records = append(u.Records, readRecord(r))
	}
	return u
}

func appendRecord(b []byte, rec membership.Record) []byte {
	b = addr.AppendAddress(b, rec.Addr)
	b = interest.AppendSubscription(b, rec.Sub)
	b = binenc.AppendUvarint(b, rec.Stamp)
	return binenc.AppendBool(b, rec.Alive)
}

// recordSize is the size walk of appendRecord; the subscription's term is the
// length of its memoized canonical encoding.
func recordSize(rec membership.Record) int {
	return addr.WireSize(rec.Addr) + rec.Sub.WireSize() + binenc.UvarintLen(rec.Stamp) + 1
}

func readRecord(r *binenc.Reader) membership.Record {
	return membership.Record{
		Addr:  addr.ReadAddress(r),
		Sub:   interest.ReadSubscription(r),
		Stamp: r.Uvarint(),
		Alive: r.Bool(),
	}
}

func finish(r *binenc.Reader) error {
	if err := r.Done(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return nil
}
