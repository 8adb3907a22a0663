package fec

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/event"
)

func randSymbols(rng *rand.Rand, k, symLen int) [][]byte {
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, symLen)
		rng.Read(src[i])
	}
	return src
}

func encodeAll(t *testing.T, c *Code, src [][]byte, symLen int) [][]byte {
	t.Helper()
	repairs := make([][]byte, c.r)
	for i := range repairs {
		repairs[i] = make([]byte, symLen)
	}
	c.EncodeInto(repairs, src)
	return repairs
}

// TestReconstructAllErasurePatterns exhausts every erasure pattern that
// loses at most r symbols for a range of (k, r) and checks the sources come
// back bit-exact — the MDS property the Vandermonde construction promises.
func TestReconstructAllErasurePatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kr := range [][2]int{{1, 1}, {1, 3}, {2, 1}, {2, 2}, {3, 3}, {4, 2}, {4, 4}, {5, 3}, {8, 2}, {8, 4}} {
		k, r := kr[0], kr[1]
		c, err := NewCode(k, r)
		if err != nil {
			t.Fatalf("NewCode(%d,%d): %v", k, r, err)
		}
		const symLen = 37
		src := randSymbols(rng, k, symLen)
		repairs := encodeAll(t, c, src, symLen)
		n := k + r
		for mask := 0; mask < 1<<n; mask++ {
			lost := 0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					lost++
				}
			}
			if lost > r {
				continue
			}
			shards := make([][]byte, n)
			for i := 0; i < k; i++ {
				if mask&(1<<i) == 0 {
					shards[i] = src[i]
				}
			}
			for i := 0; i < r; i++ {
				if mask&(1<<(k+i)) == 0 {
					shards[k+i] = repairs[i]
				}
			}
			if err := c.Reconstruct(shards); err != nil {
				t.Fatalf("(%d,%d) mask %b: %v", k, r, mask, err)
			}
			for i := 0; i < k; i++ {
				if !bytes.Equal(shards[i], src[i]) {
					t.Fatalf("(%d,%d) mask %b: source %d mismatch", k, r, mask, i)
				}
			}
		}
	}
}

func TestReconstructInsufficient(t *testing.T) {
	c, _ := NewCode(4, 2)
	src := randSymbols(rand.New(rand.NewSource(2)), 4, 16)
	repairs := encodeAll(t, c, src, 16)
	shards := [][]byte{nil, nil, nil, src[3], nil, repairs[1]}
	if err := c.Reconstruct(shards); err != ErrInsufficient {
		t.Fatalf("want ErrInsufficient, got %v", err)
	}
}

// TestXOREncodeZeroAlloc pins the r = 1 parity path to zero allocations —
// the property the wire hot path depends on.
func TestXOREncodeZeroAlloc(t *testing.T) {
	c, _ := NewCode(8, 1)
	src := randSymbols(rand.New(rand.NewSource(3)), 8, 256)
	repairs := [][]byte{make([]byte, 256)}
	allocs := testing.AllocsPerRun(100, func() {
		c.EncodeInto(repairs, src)
	})
	if allocs != 0 {
		t.Fatalf("XOR encode path allocates: %v allocs/op", allocs)
	}
	want := make([]byte, 256)
	for _, s := range src {
		for i, b := range s {
			want[i] ^= b
		}
	}
	if !bytes.Equal(repairs[0], want) {
		t.Fatal("r=1 repair is not the XOR parity of the sources")
	}
}

func TestSymbolPackUnpack(t *testing.T) {
	for _, body := range [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xab}, 300)} {
		symLen := SymbolLen(body) + 3 // with padding
		sym := make([]byte, symLen)
		PackSymbol(sym, body)
		got, err := UnpackSymbol(sym)
		if err != nil {
			t.Fatalf("unpack: %v", err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("body mismatch: got %x want %x", got, body)
		}
	}
	if _, err := UnpackSymbol([]byte{0xff}); err == nil {
		t.Fatal("truncated symbol must not unpack")
	}
	if _, err := UnpackSymbol([]byte{10, 1, 2}); err == nil {
		t.Fatal("overlong length prefix must not unpack")
	}
}

func genID(i int) event.ID {
	return event.ID{Origin: "0.1", Seq: uint64(i)}
}

func makeSources(rng *rand.Rand, n int) []Source {
	srcs := make([]Source, n)
	for i := range srcs {
		body := make([]byte, 5+rng.Intn(60))
		rng.Read(body)
		srcs[i] = Source{
			ID:   genID(i),
			Meta: Meta{Depth: 1 + i%3, Rate: 1, Round: i},
			Body: body,
		}
	}
	return srcs
}

// receiver returns a coder for the receive-side tests, which drive
// observeSource and observeRepair with arbitrary bodies; its own (k, r) plays
// no part there.
func receiver() *Coder { return NewCoder(1, 1, 1) }

// TestEncoderAssemblerRecovery drives the full sender→receiver pipeline:
// encode a round, lose some sources, observe the survivors and the repairs,
// and check the receiver side hands back exactly the lost bodies.
func TestEncoderAssemblerRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, kr := range [][2]int{{4, 1}, {4, 2}, {8, 3}} {
		k, r := kr[0], kr[1]
		enc := NewEncoder(k, r)
		srcs := makeSources(rng, k)
		gens := enc.Encode(srcs)
		if len(gens) != 1 {
			t.Fatalf("want 1 generation, got %d", len(gens))
		}
		g := gens[0]
		if g.K != k || g.R != r || len(g.Repairs) != r {
			t.Fatalf("generation shape: %+v", g)
		}

		c := receiver()
		lost := map[int]bool{}
		for len(lost) < r {
			lost[rng.Intn(k)] = true
		}
		var rec []recovered
		for i, src := range srcs {
			if lost[i] {
				continue
			}
			rec = append(rec, c.observeSource(src.ID, src.Body)...)
		}
		for _, rs := range g.Repairs {
			rec = append(rec, c.observeRepair("s", g, rs)...)
		}
		if len(rec) != len(lost) {
			t.Fatalf("(%d,%d): recovered %d, lost %d", k, r, len(rec), len(lost))
		}
		for _, rv := range rec {
			i := int(rv.id.Seq)
			if !lost[i] {
				t.Fatalf("recovered a symbol that was never lost: %v", rv.id)
			}
			if !bytes.Equal(rv.body, srcs[i].Body) {
				t.Fatalf("recovered body %d mismatch", i)
			}
			if rv.meta != srcs[i].Meta {
				t.Fatalf("recovered meta %d mismatch: %+v != %+v", i, rv.meta, srcs[i].Meta)
			}
		}
		if st := c.Stats(); st.Decodes != 1 || st.Corrupt != 0 {
			t.Fatalf("stats: %+v", st)
		}
	}
}

// TestEncoderSplitsGenerations checks a round larger than k is chunked,
// with a short tail generation coded under its own (k', r) code.
func TestEncoderSplitsGenerations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	enc := NewEncoder(4, 2)
	gens := enc.Encode(makeSources(rng, 10))
	if len(gens) != 3 {
		t.Fatalf("want 3 generations, got %d", len(gens))
	}
	if gens[2].K != 2 {
		t.Fatalf("tail generation k = %d, want 2", gens[2].K)
	}
	seen := map[uint64]bool{}
	for _, g := range gens {
		if seen[g.Gen] {
			t.Fatal("generation counter reused")
		}
		seen[g.Gen] = true
	}
}

// TestAssemblerRepairFirst delivers the repairs before any source: the
// generation must wait, then complete as sources trickle in.
func TestAssemblerRepairFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	enc := NewEncoder(3, 1)
	srcs := makeSources(rng, 3)
	g := enc.Encode(srcs)[0]

	c := receiver()
	if rec := c.observeRepair("s", g, g.Repairs[0]); rec != nil {
		t.Fatalf("premature recovery: %v", rec)
	}
	if rec := c.observeSource(srcs[0].ID, srcs[0].Body); rec != nil {
		t.Fatalf("premature recovery: %v", rec)
	}
	rec := c.observeSource(srcs[1].ID, srcs[1].Body)
	if len(rec) != 1 || !bytes.Equal(rec[0].body, srcs[2].Body) {
		t.Fatalf("want body 2 recovered, got %v", rec)
	}
}

// TestAssemblerSweepExpires checks the partial-generation timeout: after
// genTTL rounds an incomplete generation is dropped.
func TestAssemblerSweepExpires(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	enc := NewEncoder(3, 1)
	g := enc.Encode(makeSources(rng, 3))[0]

	c := receiver()
	c.observeRepair("s", g, g.Repairs[0])
	for i := 0; i < genTTL; i++ {
		c.Tick()
	}
	if st := c.Stats(); st.Expired != 1 {
		t.Fatalf("want 1 expired generation, got %+v", st)
	}
}

// TestAssemblerRejectsMalformed throws hostile repair headers at the
// receiver side; none may produce a recovery or panic.
func TestAssemblerRejectsMalformed(t *testing.T) {
	c := receiver()
	sym := func(index, n int) []RepairSymbol { return []RepairSymbol{{Index: index, Data: make([]byte, n)}} }
	bad := []Generation{
		{K: 0, R: 1, SymLen: 4, Repairs: sym(0, 4)},
		{K: 2, R: 0, SymLen: 4, IDs: make([]event.ID, 2), Meta: make([]Meta, 2), Repairs: sym(0, 4)},
		{K: 2, R: 1, SymLen: 4, IDs: make([]event.ID, 2), Meta: make([]Meta, 2), Repairs: sym(1, 4)},
		{K: 2, R: 1, SymLen: 4, IDs: make([]event.ID, 1), Meta: make([]Meta, 1), Repairs: sym(0, 4)},
		{K: 2, R: 1, SymLen: 4, IDs: make([]event.ID, 2), Meta: make([]Meta, 1), Repairs: sym(0, 4)},
		{K: 2, R: 1, SymLen: 4, IDs: make([]event.ID, 2), Meta: make([]Meta, 2), Repairs: sym(0, 3)},
		{K: 200, R: 100, SymLen: 4, IDs: make([]event.ID, 200), Meta: make([]Meta, 200), Repairs: sym(0, 4)},
	}
	for i, g := range bad {
		if rec := c.observeRepair("s", g, g.Repairs[0]); rec != nil {
			t.Fatalf("malformed repair %d produced a recovery", i)
		}
	}
	if st := c.Stats(); st.Corrupt != int64(len(bad)) {
		t.Fatalf("want %d corrupt, got %+v", len(bad), st)
	}
}

// TestForgedRepairRetainsWhatItCarries: one repair whose header lists 200
// cached events under a symbol length that fits a 64 KB datagram leaves a
// pending generation that costs its symbol and its header — not a padded
// copy of every cached event it names, which came to 13 MB.
func TestForgedRepairRetainsWhatItCarries(t *testing.T) {
	const k, symLen = 200, 60000
	c := receiver()
	ids := make([]event.ID, k)
	for i := range ids {
		ids[i] = genID(i)
		if i >= 2 { // two sources missing: one repair cannot complete the generation
			c.observeSource(ids[i], []byte{byte(i), 1, 2, 3})
		}
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	gen := Generation{K: k, R: 1, SymLen: symLen, IDs: ids, Meta: make([]Meta, k)}
	if rec := c.observeRepair("forger", gen, RepairSymbol{Data: make([]byte, symLen)}); rec != nil {
		t.Fatalf("a generation two sources short recovered %v", rec)
	}
	retained := heap() - before
	if st := c.Stats(); st.Decodes != 0 || st.Corrupt != 0 {
		t.Fatalf("the repair was not kept pending: %+v", st)
	}
	runtime.KeepAlive(c)
	if retained >= 1<<20 {
		t.Errorf("one %d-byte repair left %d bytes retained, want < 1 MB", symLen, retained)
	}
}

// TestCodeParameterValidation pins the accepted parameter domain.
func TestCodeParameterValidation(t *testing.T) {
	for _, kr := range [][2]int{{0, 1}, {-1, 0}, {1, -1}, {200, 57}} {
		if _, err := NewCode(kr[0], kr[1]); err == nil {
			t.Fatalf("NewCode(%d,%d) must fail", kr[0], kr[1])
		}
	}
	if _, err := NewCode(200, 56); err != nil {
		t.Fatalf("NewCode(200,56): %v", err)
	}
}

func TestGenerationRepairBytes(t *testing.T) {
	g := Generation{Repairs: []RepairSymbol{{Data: make([]byte, 10)}, {Data: make([]byte, 7)}}}
	if got := g.RepairBytes(); got != 17 {
		t.Fatalf("RepairBytes = %d, want 17", got)
	}
}

func BenchmarkReconstruct(b *testing.B) {
	for _, kr := range [][2]int{{8, 1}, {8, 2}, {16, 4}} {
		k, r := kr[0], kr[1]
		b.Run(fmt.Sprintf("k%d_r%d", k, r), func(b *testing.B) {
			c, _ := NewCode(k, r)
			rng := rand.New(rand.NewSource(8))
			src := randSymbols(rng, k, 256)
			repairs := make([][]byte, r)
			for i := range repairs {
				repairs[i] = make([]byte, 256)
			}
			c.EncodeInto(repairs, src)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shards := make([][]byte, k+r)
				copy(shards, src)
				for j := 0; j < r; j++ {
					shards[j] = nil // lose the first r sources
					shards[k+j] = repairs[j]
				}
				if err := c.Reconstruct(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// gossips builds n depth-1 gossips with distinct events — the sub-leaf hops
// a coder in a depth-3 space codes.
func gossips(n int) []core.Gossip {
	gs := make([]core.Gossip, n)
	for i := range gs {
		ev := event.New(genID(i), map[string]event.Value{"b": event.Int(int64(i))})
		gs[i] = core.Gossip{Event: ev, Depth: 1, Rate: 1, Round: i}
	}
	return gs
}

// sources presents gossips to an Encoder as the coder does.
func sources(gs []core.Gossip) []Source {
	srcs := make([]Source, len(gs))
	for i, g := range gs {
		srcs[i] = Source{
			ID:   g.Event.ID(),
			Meta: Meta{Depth: g.Depth, Rate: g.Rate, Round: g.Round},
			Body: event.AppendEvent(nil, g.Event),
		}
	}
	return srcs
}

func send(to addr.Address, gs ...core.Gossip) core.RoundSend {
	return core.RoundSend{To: to, Gossips: gs}
}

// TestEncoderAccumulatesAcrossRounds drives one subtree's accumulator:
// envelopes with fewer than k events accumulate silently, the k-th distinct
// event flushes a generation onto that envelope, the flushed generation then
// rides the next genCopies-1 envelopes toward the same subtree as replica
// copies, and retransmissions — of accumulated or already-coded events — are
// never double-counted, nor are leaf-depth gossips coded at all. The
// envelopes go to different peers of one subtree.
func TestEncoderAccumulatesAcrossRounds(t *testing.T) {
	c := NewCoder(4, 1, 3)
	gs := gossips(6)
	peers := []addr.Address{addr.New(0, 0, 1), addr.New(0, 1, 0), addr.New(0, 1, 1)}

	if gens := c.Code(send(peers[0], gs[:2]...)); gens != nil {
		t.Fatalf("premature flush: %v", gens)
	}
	// A retransmission of an already-accumulated event must not fill a slot.
	if gens := c.Code(send(peers[1], gs[1])); gens != nil {
		t.Fatalf("duplicate flushed a generation: %v", gens)
	}
	// Neither does a leaf-depth gossip: the space's depth is 3.
	leaf := gs[5]
	leaf.Depth = 3
	if gens := c.Code(send(peers[1], leaf)); gens != nil {
		t.Fatalf("a leaf gossip was coded: %v", gens)
	}
	gens := c.Code(send(peers[2], gs[2:4]...))
	if len(gens) != 1 {
		t.Fatalf("want 1 generation at the 4th distinct event, got %d", len(gens))
	}
	g := gens[0]
	if g.K != 4 || len(g.IDs) != 4 || len(g.Meta) != 4 || len(g.Repairs) != 1 {
		t.Fatalf("generation shape: %+v", g)
	}
	for i, src := range sources(gs[:4]) {
		if g.IDs[i] != src.ID || g.Meta[i] != src.Meta {
			t.Fatalf("slot %d holds %v, want %v", i, g.IDs[i], src.ID)
		}
	}
	if st := c.Stats(); st.RepairBytes != int64(g.RepairBytes()) {
		t.Fatalf("RepairBytes = %d, want the generation's %d", st.RepairBytes, g.RepairBytes())
	}

	// The coded generation spreads: the next genCopies-1 envelopes carry a
	// replica copy each, then it stops. Re-sent coded events are skipped.
	for i := 0; i < genCopies-1; i++ {
		copies := c.Code(send(peers[i%len(peers)], gs[0]))
		if len(copies) != 1 || copies[0].Gen != g.Gen {
			t.Fatalf("envelope %d: want replica of gen %d, got %+v", i, g.Gen, copies)
		}
	}
	if extra := c.Code(send(peers[0], gs[:2]...)); extra != nil {
		t.Fatalf("generation over-replicated (or coded events re-coded): %v", extra)
	}

	// The flushed generation must reconstruct like any other: a receiver
	// that got three sources and the repair revives the fourth.
	rx := NewCoder(4, 1, 3)
	rx.Observe(addr.New(1, 0, 0), gs[:3], []Generation{g})
	if st := rx.Stats(); st.Recovered != 1 || st.RepairsReceived != 1 {
		t.Fatalf("accumulated generation did not recover the lost source: %+v", st)
	}
	var revived []core.Gossip
	for i := 0; i < 10 && len(revived) == 0; i++ {
		revived = rx.Tick()
	}
	if len(revived) != 1 || revived[0].Event.ID() != gs[3].Event.ID() || revived[0].Depth != gs[3].Depth {
		t.Fatalf("revived %+v, want the lost gossip", revived)
	}
}

// TestEncoderPiggybacksAged pins the cheap short-flush path: once the open
// generation has waited piggybackAge rounds, the next envelope toward its
// subtree flushes it short — no dedicated repair-only envelope needed while
// traffic flows — and the events that triggered the flush start the next
// generation.
func TestEncoderPiggybacksAged(t *testing.T) {
	c := NewCoder(8, 1, 3)
	gs := gossips(2)
	c.Tick()
	c.Code(send(addr.New(2, 0, 0), gs[0]))
	for i := 0; i < piggybackAge; i++ {
		c.Tick()
		if out := c.Flush(); out != nil {
			t.Fatalf("backstop fired below its age bound: %v", out)
		}
	}
	gens := c.Code(send(addr.New(2, 1, 0), gs[1]))
	if len(gens) != 1 || gens[0].K != 1 || gens[0].IDs[0] != gs[0].Event.ID() {
		t.Fatalf("want the aged K=1 generation piggybacked, got %+v", gens)
	}
}

// TestEncoderFlushAged pins the backstop: a partial generation left waiting
// with no envelopes to ride flushes after flushAge rounds under a (k', r)
// code, in a repair-only envelope to the subtree's last destination, and an
// empty accumulator never flushes.
func TestEncoderFlushAged(t *testing.T) {
	c := NewCoder(8, 2, 3)
	to := addr.New(1, 0, 1)
	c.Code(send(to, gossips(3)...))
	for age := 0; age < flushAge; age++ {
		if out := c.Flush(); out != nil {
			t.Fatalf("flushed at age %d: %v", age, out)
		}
		c.Tick()
	}
	out := c.Flush()
	if len(out) != 1 || !out[0].To.Equal(to) || len(out[0].Gens) != 1 {
		t.Fatalf("aged flush: %+v", out)
	}
	g := out[0].Gens[0]
	if g.K != 3 || g.R != 2 || len(g.Repairs) != 2 {
		t.Fatalf("short generation shape: %+v", g)
	}
	if st := c.Stats(); st.RepairBytes != int64(g.RepairBytes()) {
		t.Fatalf("RepairBytes = %d, want the flush's %d", st.RepairBytes, g.RepairBytes())
	}
	c.Tick()
	if out := c.Flush(); out != nil {
		t.Fatalf("empty accumulator flushed: %v", out)
	}
}

// TestEncoderKeysAreIndependent pins the per-subtree grouping: events sent
// toward different top-level subtrees accumulate in separate generations,
// so a generation never mixes events bound for different subtrees — the mix
// would present mostly holes to every receiver and decode nowhere.
func TestEncoderKeysAreIndependent(t *testing.T) {
	c := NewCoder(2, 1, 3)
	gs := gossips(4)
	a, b := addr.New(0, 1, 1), addr.New(1, 0, 1)

	if gens := c.Code(send(a, gs[0])); gens != nil {
		t.Fatalf("premature flush toward subtree 0: %v", gens)
	}
	// Subtree 1 fills first: its generation holds only its own events.
	gens := c.Code(send(b, gs[2:4]...))
	if len(gens) != 1 {
		t.Fatalf("subtree 1 should flush at k=2, got %+v", gens)
	}
	if g := gens[0]; g.IDs[0] != gs[2].Event.ID() || g.IDs[1] != gs[3].Event.ID() {
		t.Fatalf("subtree 1's generation mixed subtrees: %+v", g.IDs)
	}
	// The same event accumulates toward both subtrees — each subtree's
	// generation must be self-contained.
	gens = c.Code(send(a, gs[1:3]...))
	if len(gens) != 1 {
		t.Fatalf("subtree 0 should flush at k=2, got %+v", gens)
	}
	if g := gens[0]; g.IDs[0] != gs[0].Event.ID() || g.IDs[1] != gs[1].Event.ID() {
		t.Fatalf("subtree 0's generation: %+v", g.IDs)
	}
	if gens := c.Code(send(a, gs[2])); len(gens) != 1 || gens[0].Gen != 1 {
		t.Fatalf("want subtree 0's replica copy, got %+v", gens)
	}
}

// TestCoderOneClock pins every bound to the one round counter Tick advances.
// In round k a receiver recovers an event, opens a generation toward a
// subtree (then sends there again, to another peer), and holds a repair
// that cannot complete. The recovery comes back from round k+3's Tick; the
// open generation flushes from round k+6's Flush, to the subtree's last
// destination; the pending generation expires in round k+genTTL's Tick.
func TestCoderOneClock(t *testing.T) {
	const k = 5
	gs := gossips(4)
	enc := NewEncoder(2, 1)
	recoverable := enc.Encode(sources(gs[:2]))[0]
	stuck := enc.Encode(sources(gs[2:4]))[0] // neither source ever arrives

	c := NewCoder(2, 1, 3)
	for i := 0; i < k; i++ {
		c.Tick()
	}
	from := addr.New(2, 0, 0)
	c.Observe(from, gs[:1], []Generation{recoverable, stuck})
	if st := c.Stats(); st.Recovered != 1 {
		t.Fatalf("round %d: no recovery: %+v", k, st)
	}
	c.Code(send(addr.New(1, 0, 0), gs[2]))
	last := addr.New(1, 1, 1)
	c.Code(send(last))

	// want is 1 in the round an event is due, else 0.
	want := func(round, due int) int {
		if round == due {
			return 1
		}
		return 0
	}
	for round := k + 1; round <= k+genTTL; round++ {
		due := c.Tick()
		if n := want(round, k+3); len(due) != n || n == 1 && due[0].Event.ID() != gs[1].Event.ID() {
			t.Fatalf("round %d: revived %+v", round, due)
		}
		if got := c.Stats().Expired; got != int64(want(round, k+genTTL)) {
			t.Fatalf("round %d: %d generations expired", round, got)
		}
		if out := c.Flush(); len(out) != want(round, k+6) || len(out) == 1 && !out[0].To.Equal(last) {
			t.Fatalf("round %d: flushed %+v, want one flush to %v in round %d", round, out, last, k+6)
		}
	}
}
