package fec

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

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

// TestEncoderAssemblerRecovery drives the full sender→receiver pipeline:
// encode a round, lose some sources, observe the survivors and the repairs,
// and check the assembler hands back exactly the lost bodies.
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

		asm := NewAssembler()
		lost := map[int]bool{}
		for len(lost) < r {
			lost[rng.Intn(k)] = true
		}
		var rec []Recovered
		for i, src := range srcs {
			if lost[i] {
				continue
			}
			rec = append(rec, asm.ObserveSource(src.ID, src.Body)...)
		}
		for _, rs := range g.Repairs {
			rec = append(rec, asm.ObserveRepair("s", g, rs)...)
		}
		if len(rec) != len(lost) {
			t.Fatalf("(%d,%d): recovered %d, lost %d", k, r, len(rec), len(lost))
		}
		for _, rv := range rec {
			i := int(rv.ID.Seq)
			if !lost[i] {
				t.Fatalf("recovered a symbol that was never lost: %v", rv.ID)
			}
			if !bytes.Equal(rv.Body, srcs[i].Body) {
				t.Fatalf("recovered body %d mismatch", i)
			}
			if rv.Meta != srcs[i].Meta {
				t.Fatalf("recovered meta %d mismatch: %+v != %+v", i, rv.Meta, srcs[i].Meta)
			}
		}
		st := asm.Stats()
		if st.Recoveries != int64(len(lost)) || st.Decodes != 1 {
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

	asm := NewAssembler()
	if rec := asm.ObserveRepair("s", g, g.Repairs[0]); rec != nil {
		t.Fatalf("premature recovery: %v", rec)
	}
	if rec := asm.ObserveSource(srcs[0].ID, srcs[0].Body); rec != nil {
		t.Fatalf("premature recovery: %v", rec)
	}
	rec := asm.ObserveSource(srcs[1].ID, srcs[1].Body)
	if len(rec) != 1 || !bytes.Equal(rec[0].Body, srcs[2].Body) {
		t.Fatalf("want body 2 recovered, got %v", rec)
	}
}

// TestAssemblerSweepExpires checks the partial-generation timeout: after
// genTTL rounds an incomplete generation is dropped and a late repair
// re-opens a fresh one instead of resurrecting stale state.
func TestAssemblerSweepExpires(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	enc := NewEncoder(3, 1)
	g := enc.Encode(makeSources(rng, 3))[0]

	asm := NewAssembler()
	asm.ObserveRepair("s", g, g.Repairs[0])
	for i := 0; i < genTTL; i++ {
		asm.Sweep()
	}
	if st := asm.Stats(); st.Expired != 1 {
		t.Fatalf("want 1 expired generation, got %+v", st)
	}
}

// TestAssemblerRejectsMalformed throws hostile repair headers at the
// assembler; none may produce a recovery or panic.
func TestAssemblerRejectsMalformed(t *testing.T) {
	asm := NewAssembler()
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
		if rec := asm.ObserveRepair("s", g, g.Repairs[0]); rec != nil {
			t.Fatalf("malformed repair %d produced a recovery", i)
		}
	}
	if st := asm.Stats(); st.Corrupt != int64(len(bad)) {
		t.Fatalf("want %d corrupt, got %+v", len(bad), st)
	}
}

// TestForgedRepairRetainsWhatItCarries: one repair whose header lists 200
// cached events under a symbol length that fits a 64 KB datagram leaves a
// pending generation that costs its symbol and its header — not a padded
// copy of every cached event it names, which came to 13 MB.
func TestForgedRepairRetainsWhatItCarries(t *testing.T) {
	const k, symLen = 200, 60000
	asm := NewAssembler()
	ids := make([]event.ID, k)
	for i := range ids {
		ids[i] = genID(i)
		if i >= 2 { // two sources missing: one repair cannot complete the generation
			asm.ObserveSource(ids[i], []byte{byte(i), 1, 2, 3})
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
	if rec := asm.ObserveRepair("forger", gen, RepairSymbol{Data: make([]byte, symLen)}); rec != nil {
		t.Fatalf("a generation two sources short recovered %v", rec)
	}
	retained := heap() - before
	if st := asm.Stats(); st.Decodes != 0 || st.Corrupt != 0 {
		t.Fatalf("the repair was not kept pending: %+v", st)
	}
	runtime.KeepAlive(asm)
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

// TestEncoderAccumulatesAcrossRounds drives one routing key's accumulator:
// sends smaller than k accumulate silently, the k-th distinct event flushes
// a generation onto that round's envelope, the flushed generation then rides
// the next genCopies-1 envelopes toward the same key as replica copies, and
// retransmissions — of accumulated or already-coded events — are never
// double-counted.
func TestEncoderAccumulatesAcrossRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	enc := NewEncoder(4, 1)
	srcs := makeSources(rng, 6)

	if gens := enc.Add("t", srcs[:2]); gens != nil {
		t.Fatalf("premature flush: %v", gens)
	}
	// A retransmission of an already-accumulated event must not fill a slot.
	if gens := enc.Add("t", srcs[1:2]); gens != nil {
		t.Fatalf("duplicate flushed a generation: %v", gens)
	}
	gens := enc.Add("t", srcs[2:4])
	if len(gens) != 1 {
		t.Fatalf("want 1 generation at the 4th distinct event, got %d", len(gens))
	}
	g := gens[0]
	if g.K != 4 || len(g.IDs) != 4 || len(g.Meta) != 4 || len(g.Repairs) != 1 {
		t.Fatalf("generation shape: %+v", g)
	}
	for i := 0; i < 4; i++ {
		if g.IDs[i] != srcs[i].ID || g.Meta[i] != srcs[i].Meta {
			t.Fatalf("slot %d holds %v, want %v", i, g.IDs[i], srcs[i].ID)
		}
	}

	// The coded generation spreads: the next genCopies-1 envelopes carry a
	// replica copy each, then it stops. Re-sent coded events are skipped.
	for i := 0; i < genCopies-1; i++ {
		copies := enc.Add("t", srcs[:1])
		if len(copies) != 1 || copies[0].Gen != g.Gen {
			t.Fatalf("envelope %d: want replica of gen %d, got %+v", i, g.Gen, copies)
		}
	}
	if extra := enc.Add("t", srcs[:2]); extra != nil {
		t.Fatalf("generation over-replicated (or coded events re-coded): %v", extra)
	}

	// The flushed generation must reconstruct like any other.
	asm := NewAssembler()
	for i := 0; i < 3; i++ { // source 3 lost
		asm.ObserveSource(srcs[i].ID, srcs[i].Body)
	}
	rec := asm.ObserveRepair("n", g, g.Repairs[0])
	if len(rec) != 1 || rec[0].ID != srcs[3].ID || !bytes.Equal(rec[0].Body, srcs[3].Body) {
		t.Fatalf("accumulated generation did not recover the lost source: %v", rec)
	}
}

// TestEncoderPiggybacksAged pins the cheap short-flush path: once the open
// generation has waited piggybackAge rounds, the next envelope flushes it
// short — no dedicated repair-only envelope needed while traffic flows —
// and the events that triggered the flush start the next generation.
func TestEncoderPiggybacksAged(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	enc := NewEncoder(8, 1)
	srcs := makeSources(rng, 2)
	enc.Add("t", srcs[:1])
	for i := 0; i < piggybackAge; i++ {
		if out := enc.FlushAged(100); out != nil {
			t.Fatalf("backstop fired below its age bound: %v", out)
		}
	}
	gens := enc.Add("t", srcs[1:2])
	if len(gens) != 1 || gens[0].K != 1 || gens[0].IDs[0] != srcs[0].ID {
		t.Fatalf("want the aged K=1 generation piggybacked, got %+v", gens)
	}
}

// TestEncoderFlushAged pins the backstop: a partial generation left waiting
// with no envelopes to ride flushes after maxAge rounds under a (k', r)
// code, and an empty accumulator never flushes.
func TestEncoderFlushAged(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	enc := NewEncoder(8, 2)
	srcs := makeSources(rng, 3)
	enc.Add("t", srcs)

	if out := enc.FlushAged(2); out != nil {
		t.Fatalf("flushed a fresh generation: %v", out)
	}
	if out := enc.FlushAged(2); out != nil {
		t.Fatalf("flushed one round early: %v", out)
	}
	out := enc.FlushAged(2)
	if len(out) != 1 || out[0].Key != "t" || len(out[0].Gens) != 1 {
		t.Fatalf("aged flush: %+v", out)
	}
	g := out[0].Gens[0]
	if g.K != 3 || g.R != 2 || len(g.Repairs) != 2 {
		t.Fatalf("short generation shape: %+v", g)
	}
	if out := enc.FlushAged(2); out != nil {
		t.Fatalf("empty accumulator flushed: %v", out)
	}
}

// TestEncoderKeysAreIndependent pins the per-subtree grouping: events sent
// toward different routing keys accumulate in separate generations, so a
// generation never mixes events bound for different subtrees — the mix
// would present mostly holes to every receiver and decode nowhere.
func TestEncoderKeysAreIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	enc := NewEncoder(2, 1)
	srcs := makeSources(rng, 4)

	if gens := enc.Add("a", srcs[:1]); gens != nil {
		t.Fatalf("premature flush on key a: %v", gens)
	}
	// Key b fills first: its generation holds only b's events.
	gens := enc.Add("b", srcs[2:4])
	if len(gens) != 1 {
		t.Fatalf("key b should flush at k=2, got %+v", gens)
	}
	if g := gens[0]; g.IDs[0] != srcs[2].ID || g.IDs[1] != srcs[3].ID {
		t.Fatalf("key b generation mixed keys: %+v", g.IDs)
	}
	// The same event accumulates under both keys — each subtree's
	// generation must be self-contained.
	gens = enc.Add("a", srcs[1:3])
	if len(gens) != 1 {
		t.Fatalf("key a should flush at k=2, got %+v", gens)
	}
	if g := gens[0]; g.IDs[0] != srcs[0].ID || g.IDs[1] != srcs[1].ID {
		t.Fatalf("key a generation: %+v", g.IDs)
	}
	if gens := enc.Add("a", srcs[2:3]); len(gens) != 1 || gens[0].Gen != 1 {
		t.Fatalf("want key a's replica copy, got %+v", gens)
	}
}
