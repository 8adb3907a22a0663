package wire

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"pmcast/internal/event"
	"pmcast/internal/fec"
)

// codedBatch builds a batch of n gossips coded into generations of k
// source symbols with r repairs each, the way the protocol stage does.
func codedBatch(t testing.TB, n, k, r int) Batch {
	t.Helper()
	b := sampleBatch(n)
	enc := fec.NewEncoder(k, r)
	srcs := make([]fec.Source, n)
	for i, g := range b.Gossips {
		srcs[i] = fec.Source{
			ID:   g.Event.ID(),
			Meta: fec.Meta{Depth: g.Depth, Rate: g.Rate, Round: g.Round},
			Body: AppendEventBody(nil, g.Event),
		}
	}
	b.FEC = enc.Encode(srcs)
	return b
}

func codedFullBatch(t testing.TB, n, k, r int) Batch {
	t.Helper()
	b := codedBatch(t, n, k, r)
	full := fullBatch()
	b.Update, b.Digest, b.Heartbeat, b.Join, b.Leave = full.Update, full.Digest, full.Heartbeat, full.Join, full.Leave
	return b
}

func sameFEC(a, b []fec.Generation) error {
	if len(a) != len(b) {
		return fmt.Errorf("generation count %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Gen != y.Gen || x.K != y.K || x.R != y.R || x.SymLen != y.SymLen {
			return fmt.Errorf("generation %d header %+v vs %+v", i, x, y)
		}
		if len(x.IDs) != len(y.IDs) {
			return fmt.Errorf("generation %d id count", i)
		}
		for j := range x.IDs {
			if x.IDs[j] != y.IDs[j] {
				return fmt.Errorf("generation %d id %d", i, j)
			}
			if x.Meta[j] != y.Meta[j] {
				return fmt.Errorf("generation %d meta %d: %+v vs %+v", i, j, x.Meta[j], y.Meta[j])
			}
		}
		if len(x.Repairs) != len(y.Repairs) {
			return fmt.Errorf("generation %d repair count %d vs %d", i, len(x.Repairs), len(y.Repairs))
		}
		for j := range x.Repairs {
			if x.Repairs[j].Index != y.Repairs[j].Index || !bytes.Equal(x.Repairs[j].Data, y.Repairs[j].Data) {
				return fmt.Errorf("generation %d repair %d", i, j)
			}
		}
	}
	return nil
}

func TestCodedBatchRoundTrip(t *testing.T) {
	in := codedFullBatch(t, 7, 4, 2)
	out := roundTrip(t, in)
	if len(out.Gossips) != 7 {
		t.Fatalf("gossips = %d", len(out.Gossips))
	}
	if err := sameFEC(in.FEC, out.FEC); err != nil {
		t.Fatal(err)
	}
	if out.Update == nil || out.Digest == nil || out.Heartbeat == nil || out.Join == nil || out.Leave == nil {
		t.Fatalf("membership tail lost: %+v", out)
	}
}

func TestCodedBatchEncodedSizeMatches(t *testing.T) {
	for _, b := range []Batch{codedBatch(t, 1, 8, 1), codedBatch(t, 9, 4, 3), codedFullBatch(t, 5, 2, 2)} {
		enc, err := Encode(b)
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodedSize(b); got != len(enc) {
			t.Fatalf("EncodedSize = %d, encoded %d bytes", got, len(enc))
		}
	}
}

// TestCodedSurvivingOrder pins where repair symbols sit in the canonical
// order — after the gossips they protect, before the membership payloads,
// each one asked about on its own — and what a lossy link leaves of a
// generation: its header with the symbols that survived, or nothing.
func TestCodedSurvivingOrder(t *testing.T) {
	b := codedFullBatch(t, 5, 4, 2)
	repair := []bool{
		false, false, false, false, false,
		true, true, true, true,
		false, false, false, false, false,
	}
	checkSurvivingOrder(t, b, repair)

	// The first generation loses one symbol, the second both.
	asked := 0
	kept := b.Surviving(func(isRepair bool) bool {
		asked++
		return isRepair && asked != 6
	})
	if len(kept.FEC) != 1 || len(kept.FEC[0].Repairs) != 1 {
		t.Fatalf("kept generations %+v, want the first with one symbol", kept.FEC)
	}
	g, was := kept.FEC[0], b.FEC[0]
	g.Repairs, was.Repairs = nil, nil
	if err := sameFEC([]fec.Generation{g}, []fec.Generation{was}); err != nil {
		t.Errorf("surviving generation lost its header: %v", err)
	}
	if len(b.FEC) != 2 || len(b.FEC[0].Repairs) != 2 || len(b.FEC[1].Repairs) != 2 {
		t.Errorf("Surviving changed its input: %+v", b.FEC)
	}
}

// FuzzBatchSurviving holds Surviving to a filter that always copies: whatever
// batch decodes, under whatever loss mask (bit i set loses the i-th part of
// the canonical order), the result is exactly the kept parts in order, counts
// them, is itself a frame that round-trips — and the input is untouched, spare
// capacity included: the sender may still be encoding it on an egress worker.
func FuzzBatchSurviving(f *testing.F) {
	full := fullBatch()
	for _, b := range []Batch{fullBatch(), sampleBatch(16), codedFullBatch(f, 5, 4, 2), codedBatch(f, 9, 4, 3), {},
		{Gossips: sampleBatch(2).Gossips, Join: full.Join, Leave: full.Leave}} {
		frame := mustEncode(f, b)
		for _, mask := range [][]byte{nil, {0x01}, {0xaa, 0xaa}, {0xe0, 0x01}, {0xff, 0xff, 0xff}} {
			f.Add(frame, mask)
		}
	}
	f.Fuzz(func(t *testing.T, frame, mask []byte) {
		in, err := Decode(frame)
		if err != nil {
			return
		}
		// A sentinel in each section's spare capacity catches an append into
		// the sender's backing array.
		mark := sampleGossip(99)
		in.Gossips = append(in.Gossips, mark)[:len(in.Gossips)]
		in.FEC = append(in.FEC, fec.Generation{Gen: 99})[:len(in.FEC)]
		before := mustEncode(t, in)

		asked := 0
		lost := func(bool) bool {
			i := asked
			asked++
			return i/8 < len(mask) && mask[i/8]&(1<<(i%8)) != 0
		}
		var want Batch
		for _, g := range in.Gossips {
			if !lost(false) {
				want.Gossips = append(want.Gossips, g)
			}
		}
		for _, gen := range in.FEC {
			reps := gen.Repairs
			gen.Repairs = nil
			for _, rs := range reps {
				if !lost(true) {
					gen.Repairs = append(gen.Repairs, rs)
				}
			}
			if len(gen.Repairs) > 0 || len(reps) == 0 {
				want.FEC = append(want.FEC, gen)
			}
		}
		if in.Update != nil && !lost(false) {
			want.Update = in.Update
		}
		if in.Digest != nil && !lost(false) {
			want.Digest = in.Digest
		}
		if in.Heartbeat != nil && !lost(false) {
			want.Heartbeat = in.Heartbeat
		}
		if in.Join != nil && !lost(false) {
			want.Join = in.Join
		}
		if in.Leave != nil && !lost(false) {
			want.Leave = in.Leave
		}
		parts := asked

		asked = 0
		got := in.Surviving(lost)
		if asked != parts || parts != in.Parts() {
			t.Fatalf("%d fates asked of %d parts (oracle asked %d)", asked, in.Parts(), parts)
		}
		enc := mustEncode(t, got)
		if !bytes.Equal(enc, mustEncode(t, want)) {
			t.Fatalf("mask %x of %v kept %v, want %v", mask, partNames(in), partNames(got), partNames(want))
		}
		if got.Parts() != want.Parts() {
			t.Fatalf("Parts = %d, want %d", got.Parts(), want.Parts())
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("the surviving batch does not decode: %v", err)
		}
		if !bytes.Equal(mustEncode(t, back), enc) {
			t.Fatal("the surviving batch does not round-trip")
		}
		if !bytes.Equal(mustEncode(t, in), before) {
			t.Fatal("Surviving changed its input")
		}
		if g := in.Gossips[:len(in.Gossips)+1][len(in.Gossips)]; g.Event.ID() != mark.Event.ID() {
			t.Fatal("Surviving wrote past its input's gossip section")
		}
		if g := in.FEC[:len(in.FEC)+1][len(in.FEC)]; g.Gen != 99 {
			t.Fatal("Surviving wrote past its input's FEC section")
		}
	})
}

// TestPreFECDecoderRejectsCodedBatch pins the FEC flag: a coded batch sets
// it and frames its repair section, an uncoded one leaves it clear and is
// the same frame it was before coding existed, and flags that disagree with
// what follows — a coded frame read as uncoded — fail cleanly with
// ErrBadPayload, never misparse.
func TestPreFECDecoderRejectsCodedBatch(t *testing.T) {
	enc := mustEncode(t, codedBatch(t, 4, 4, 1))
	if enc[0]&hasFEC == 0 {
		t.Fatal("coded batch must set the FEC flag bit")
	}
	if plain := mustEncode(t, sampleBatch(4)); plain[0]&hasFEC != 0 {
		t.Fatal("uncoded batch sets the FEC flag bit")
	}
	bad := append([]byte(nil), enc...)
	bad[0] &^= hasFEC
	if _, err := Decode(bad); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("a coded frame read as uncoded: %v, want ErrBadPayload", err)
	}
}

func TestCodedBatchDecodeRejectsCorruptFEC(t *testing.T) {
	enc, err := Encode(codedBatch(t, 4, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Truncations anywhere in the FEC section must error, not panic or
	// return bogus generations.
	for cut := len(enc) - 1; cut > len(enc)-40 && cut > 0; cut-- {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
}

// TestSplitBatchCodedBoundaryExact is the MTU±1 test: at exactly the
// encoded size one chunk suffices; one byte under forces a split; and at
// every limit each emitted chunk re-measures within the budget with no
// part lost. The three-section batch sweeps down to 120 bytes, where repair
// symbols spill into chunks of their own; the batch that also carries a
// join and a leave sweeps down to its membership sections' own size, the
// smallest limit that can hold chunk 0.
func TestSplitBatchCodedBoundaryExact(t *testing.T) {
	threeSections := codedFullBatch(t, 9, 4, 2)
	threeSections.Join, threeSections.Leave = nil, nil
	joinLeave := codedFullBatch(t, 9, 4, 2)
	for _, tc := range []struct {
		name  string
		m     Batch
		floor int
	}{
		{"update, digest and heartbeat", threeSections, 120},
		{"join and leave too", joinLeave, EncodedSize(joinLeave.tail()) - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			full := EncodedSize(m)

			chunks, err := SplitBatch(m, full)
			if err != nil {
				t.Fatal(err)
			}
			if len(chunks) != 1 {
				t.Fatalf("at limit=size: %d chunks, want 1", len(chunks))
			}

			chunks, err = SplitBatch(m, full-1)
			if err != nil {
				t.Fatal(err)
			}
			if len(chunks) < 2 {
				t.Fatalf("at limit=size-1: %d chunks, want ≥ 2", len(chunks))
			}
			checkSplit(t, m, chunks, full-1)

			// Sweep a window of limits around practical MTUs down to tiny
			// budgets: every chunk must measure within the limit, bit-exactly.
			for limit := full + 1; limit > tc.floor; limit-- {
				chunks, err := SplitBatch(m, limit)
				if err != nil {
					t.Fatalf("limit %d: %v", limit, err)
				}
				checkSplit(t, m, chunks, limit)
			}
		})
	}
}

// checkSplit verifies a split: every chunk fits, encodes to its measured
// size, and the union of parts is exactly the original batch.
func checkSplit(t *testing.T, m Batch, chunks []Batch, limit int) {
	t.Helper()
	var gossips []string
	repairs := map[string]int{}
	tails := 0
	for i, c := range chunks {
		enc, err := Encode(c)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if len(enc) > limit {
			t.Fatalf("limit %d: chunk %d encodes to %d bytes", limit, i, len(enc))
		}
		if got := EncodedSize(c); got != len(enc) {
			t.Fatalf("chunk %d: EncodedSize %d, encoded %d", i, got, len(enc))
		}
		for _, g := range c.Gossips {
			gossips = append(gossips, g.Event.ID().String())
		}
		for _, gen := range c.FEC {
			for _, rs := range gen.Repairs {
				repairs[fmt.Sprintf("%d/%d", gen.Gen, rs.Index)]++
			}
		}
		if c.tail().Parts() > 0 {
			if i != 0 {
				t.Fatalf("membership tail on chunk %d", i)
			}
			tails++
		}
	}
	var want []string
	for _, g := range m.Gossips {
		want = append(want, g.Event.ID().String())
	}
	if fmt.Sprint(gossips) != fmt.Sprint(want) {
		t.Fatalf("limit %d: gossip order broken: %v", limit, gossips)
	}
	wantRepairs := 0
	for _, gen := range m.FEC {
		wantRepairs += len(gen.Repairs)
		for _, rs := range gen.Repairs {
			if repairs[fmt.Sprintf("%d/%d", gen.Gen, rs.Index)] != 1 {
				t.Fatalf("limit %d: repair %d/%d carried %d times", limit, gen.Gen, rs.Index,
					repairs[fmt.Sprintf("%d/%d", gen.Gen, rs.Index)])
			}
		}
	}
	if len(repairs) != wantRepairs {
		t.Fatalf("limit %d: %d distinct repairs, want %d", limit, len(repairs), wantRepairs)
	}
	if hasTail := m.tail().Parts() > 0; hasTail && tails != 1 {
		t.Fatalf("limit %d: membership tail on %d chunks", limit, tails)
	}
}

// TestSplitBatchCodedReassembles proves the split is invisible to the
// receiver: decoding every chunk and feeding the parts to an assembler
// recovers a generation even when its sources and repairs landed in
// different datagrams and some sources were lost.
func TestSplitBatchCodedReassembles(t *testing.T) {
	m := codedBatch(t, 8, 4, 2)
	full := EncodedSize(m)
	chunks, err := SplitBatch(m, full/3)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 3 {
		t.Fatalf("want ≥ 3 chunks, got %d", len(chunks))
	}
	asm := fec.NewAssembler()
	lost := map[event.ID]bool{
		m.Gossips[1].Event.ID(): true,
		m.Gossips[6].Event.ID(): true,
	}
	var recovered []fec.Recovered
	for _, c := range chunks {
		b, err := Decode(mustEncode(t, c))
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range b.Gossips {
			if lost[g.Event.ID()] {
				continue
			}
			recovered = append(recovered, asm.ObserveSource(g.Event.ID(), AppendEventBody(nil, g.Event))...)
		}
		for _, gen := range b.FEC {
			for _, rs := range gen.Repairs {
				recovered = append(recovered, asm.ObserveRepair("s", gen, rs)...)
			}
		}
	}
	if len(recovered) != len(lost) {
		t.Fatalf("recovered %d of %d lost gossips", len(recovered), len(lost))
	}
	for _, rec := range recovered {
		ev, err := DecodeEventBody(rec.Body)
		if err != nil {
			t.Fatalf("recovered body does not decode: %v", err)
		}
		if ev.ID() != rec.ID || !lost[ev.ID()] {
			t.Fatalf("recovered wrong event: %v", ev.ID())
		}
		if rec.Meta.Depth < 1 {
			t.Fatalf("recovered meta lost its depth: %+v", rec.Meta)
		}
	}
}

func mustEncode(t testing.TB, msg any) []byte {
	t.Helper()
	enc, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// EverySection returns a coded batch carrying every section a frame can
// flag. Exported to the fuzz targets' external test package.
func EverySection(tb testing.TB) Batch {
	return codedFullBatch(tb, 5, 4, 2)
}
