package wire

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/interest"
	"pmcast/internal/membership"
)

func sampleGossip(seq uint64) core.Gossip {
	return core.Gossip{
		Event: event.NewBuilder().Int("b", int64(seq%4)).
			Build(event.ID{Origin: "0.1.2", Seq: seq}),
		Depth: 2,
		Rate:  0.25,
		Round: int(seq % 5),
	}
}

func sampleBatch(events int) Batch {
	b := Batch{}
	for i := 0; i < events; i++ {
		b.Gossips = append(b.Gossips, sampleGossip(uint64(i+1)))
	}
	return b
}

func fullBatch() Batch {
	b := sampleBatch(3)
	b.Update = &membership.Update{
		From: addr.New(0, 1),
		Records: []membership.Record{
			{Addr: addr.New(1, 1), Sub: sampleSub(), Stamp: 9, Alive: true},
		},
	}
	b.Digest = &membership.Digest{
		From:  addr.New(0, 1),
		Hash:  12345,
		Count: 7,
	}
	b.Heartbeat = &membership.Heartbeat{}
	b.Join = &membership.JoinRequest{
		Joiner: membership.Record{Addr: addr.New(2, 1), Sub: sampleSub(), Stamp: 3, Alive: true},
		Hops:   2,
	}
	b.Leave = &membership.Leave{Addr: addr.New(0, 1), Stamp: 10}
	return b
}

func TestBatchRoundTrip(t *testing.T) {
	in := fullBatch()
	out := roundTrip(t, in)
	if len(out.Gossips) != len(in.Gossips) {
		t.Fatalf("gossips = %d, want %d", len(out.Gossips), len(in.Gossips))
	}
	for i := range in.Gossips {
		if out.Gossips[i].Event.ID() != in.Gossips[i].Event.ID() ||
			out.Gossips[i].Depth != in.Gossips[i].Depth ||
			out.Gossips[i].Rate != in.Gossips[i].Rate ||
			out.Gossips[i].Round != in.Gossips[i].Round {
			t.Errorf("gossip %d = %+v, want %+v", i, out.Gossips[i], in.Gossips[i])
		}
	}
	if out.Update == nil || len(out.Update.Records) != 1 || !out.Update.Records[0].Sub.Equal(sampleSub()) {
		t.Errorf("update = %+v", out.Update)
	}
	if out.Digest == nil || out.Digest.Hash != 12345 || out.Digest.Count != 7 {
		t.Errorf("digest = %+v", out.Digest)
	}
	if out.Heartbeat == nil {
		t.Errorf("heartbeat = %+v", out.Heartbeat)
	}
	if out.Join == nil || out.Join.Hops != 2 || !out.Join.Joiner.Sub.Equal(sampleSub()) {
		t.Errorf("join = %+v", out.Join)
	}
	if out.Leave == nil || !out.Leave.Addr.Equal(addr.New(0, 1)) || out.Leave.Stamp != 10 {
		t.Errorf("leave = %+v", out.Leave)
	}
	if got, want := in.Parts(), 8; got != want {
		t.Errorf("parts = %d, want %d", got, want)
	}
}

func TestBatchGossipsOnlyRoundTrip(t *testing.T) {
	out := roundTrip(t, sampleBatch(5))
	if len(out.Gossips) != 5 || out.Parts() != 5 {
		t.Errorf("batch = %+v", out)
	}
}

// partNames lists a batch's sub-messages in canonical order, each under a
// name that tells it from its neighbours.
func partNames(b Batch) []string {
	var names []string
	for _, g := range b.Gossips {
		names = append(names, fmt.Sprintf("gossip %d", g.Event.ID().Seq))
	}
	for _, gen := range b.FEC {
		for _, rs := range gen.Repairs {
			names = append(names, fmt.Sprintf("repair %d.%d", gen.Gen, rs.Index))
		}
	}
	if b.Update != nil {
		names = append(names, "update")
	}
	if b.Digest != nil {
		names = append(names, "digest")
	}
	if b.Heartbeat != nil {
		names = append(names, "heartbeat")
	}
	if b.Join != nil {
		names = append(names, "join")
	}
	if b.Leave != nil {
		names = append(names, "leave")
	}
	return names
}

// checkSurvivingOrder pins the order Surviving asks fates in — the order a
// lossy link spends its draws in: one question per part, repair says which
// are repair symbols, and losing the i-th answer removes the i-th part of the
// canonical order and nothing else.
func checkSurvivingOrder(t *testing.T, b Batch, repair []bool) {
	t.Helper()
	names := partNames(b)
	if got := b.Parts(); got != len(names) || len(repair) != len(names) {
		t.Fatalf("Parts = %d, %d names, %d flags", got, len(names), len(repair))
	}
	for lose := range names {
		var asked []bool
		kept := b.Surviving(func(isRepair bool) bool {
			asked = append(asked, isRepair)
			return len(asked)-1 == lose
		})
		if fmt.Sprint(asked) != fmt.Sprint(repair) {
			t.Fatalf("fates asked as %v, want %v", asked, repair)
		}
		want := append(append([]string(nil), names[:lose]...), names[lose+1:]...)
		if got := partNames(kept); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("losing part %d (%s) left %v", lose, names[lose], got)
		}
		if got := kept.Parts(); got != len(want) {
			t.Errorf("losing part %d: Parts = %d, want %d", lose, got, len(want))
		}
	}
	if got := partNames(b); fmt.Sprint(got) != fmt.Sprint(names) {
		t.Errorf("Surviving changed its input: %v, was %v", got, names)
	}
}

func TestSurvivingAsksCanonicalOrder(t *testing.T) {
	b := fullBatch()
	if got, want := partNames(b), "[gossip 1 gossip 2 gossip 3 update digest heartbeat join leave]"; fmt.Sprint(got) != want {
		t.Fatalf("parts = %v, want %s", got, want)
	}
	checkSurvivingOrder(t, b, make([]bool, 8))
	// A membership batch without gossips: each section is one fate.
	m := b.tail()
	m.Update = nil
	checkSurvivingOrder(t, m, make([]bool, 4))
}

// sizedMessages is one message of every shape EncodedSize knows: a bare
// gossip, and batches carrying each section in the shapes the protocol sends
// them.
func sizedMessages(t testing.TB) []any {
	// Overlay stamps just above the 127/128 and 16 383/16 384 varint
	// boundaries over base stamps just below them, so an overlay line's stamp
	// takes more bytes than the base line it replaces — beside one that moved
	// without growing.
	overlay, _ := overlayDigestOver(t, addr.MustRegular(4, 2),
		func(i int) uint64 { return []uint64{127, 16383, 128, 1}[i%4] },
		map[int]uint64{4: 128, 5: 16384, 6: 16384, 7: 127, 9: 1 << 40})
	entries := membership.Digest{From: overlay.From, Hash: overlay.Hash, Count: overlay.Count,
		Entries: slices.Collect(overlay.Lines)}
	many := make([]string, 281)
	for i := range many {
		many[i] = fmt.Sprintf("symbol-%03d", i)
	}
	update := membership.Update{
		From: addr.New(0, 1),
		Records: []membership.Record{
			{Addr: addr.New(1, 0), Sub: interest.NewSubscription(), Stamp: 127, Alive: true},
			{Addr: addr.New(1, 1), Sub: interest.NewSubscription().Where("b", interest.EqInt(2)), Stamp: 128},
			{Addr: addr.New(1, 2), Sub: interest.NewSubscription().Where("e", interest.OneOf(many...)), Stamp: 16384, Alive: true},
		},
	}
	withTail := sampleBatch(2)
	withTail.Update, withTail.Digest = &update, &overlay
	many128 := sampleBatch(130) // a two-byte gossip count
	return []any{
		sampleGossip(3),
		fullBatch(),
		sampleBatch(10),
		many128,
		withTail,
		Batch{},
		Batch{Heartbeat: &membership.Heartbeat{}},
		Batch{Leave: &membership.Leave{Addr: addr.New(1), Stamp: 4}},
		Batch{Digest: &membership.Digest{From: addr.New(0, 1), Hash: 1 << 60, Count: 300}}, // summary probe
		Batch{Digest: &entries},
		Batch{Digest: &overlay, Heartbeat: &membership.Heartbeat{}},
		Batch{Update: &update},
		Batch{Join: &membership.JoinRequest{Joiner: update.Records[2], Hops: 3}},
	}
}

func TestEncodedSizeMatchesEncoding(t *testing.T) {
	for _, msg := range sizedMessages(t) {
		enc, err := Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodedSize(msg); got != len(enc) {
			t.Errorf("EncodedSize(%T) = %d, encoded %d bytes", msg, got, len(enc))
		}
	}
	// A heartbeat's section is empty: the frame is its flags byte.
	if got := EncodedSize(Batch{Heartbeat: &membership.Heartbeat{}}); got != 1 {
		t.Errorf("EncodedSize(heartbeat batch) = %d, want 1", got)
	}
}

// TestEncodedSizeAllocatesNothing: sizing is a walk for every kind — the
// sender accounts every envelope, so it must cost no allocation, whatever
// the payload and however long the roster behind a full digest.
func TestEncodedSizeAllocatesNothing(t *testing.T) {
	big, _ := overlayDigestOver(t, addr.MustRegular(16, 3),
		func(int) uint64 { return 1 }, map[int]uint64{9: 2, 100: 300, 4000: 70000})
	for _, msg := range append(sizedMessages(t), big) {
		EncodedSize(msg) // a subscription is encoded once, the first time it is identified
		if got := testing.AllocsPerRun(100, func() { EncodedSize(msg) }); got != 0 {
			t.Errorf("EncodedSize(%T) allocates %.1f times per call, want 0", msg, got)
		}
	}
}

// TestOverlayDigestSizedWithoutWalkingRoster: a full digest over a 4 096-line
// roster is sized from the roster's precomputed total and the overlay's eight
// lines. The roster lines outside the overlay are blanked after the digest is
// built; a size that read any of them would change.
func TestOverlayDigestSizedWithoutWalkingRoster(t *testing.T) {
	bumped := map[int]uint64{3: 128, 64: 2, 65: 16384, 1000: 5, 2047: 1 << 30, 3000: 127, 4095: 9}
	d, base := overlayDigestOver(t, addr.MustRegular(16, 3), func(int) uint64 { return 1 }, bumped)
	enc, err := Encode(Batch{Digest: &d})
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Records {
		if _, over := bumped[i]; !over && i != 0 {
			base.Records[i] = membership.Record{}
		}
	}
	if got := EncodedSize(Batch{Digest: &d}); got != len(enc) {
		t.Errorf("EncodedSize = %d after blanking the roster outside the overlay, encoded %d bytes", got, len(enc))
	}
}

func TestSplitBatchRespectsLimit(t *testing.T) {
	full := fullBatch()
	for name, in := range map[string]Batch{
		"every section":               full,
		"join and leave ride chunk 0": {Gossips: sampleBatch(3).Gossips, Join: full.Join, Leave: full.Leave},
	} {
		for i := 0; i < 40; i++ {
			in.Gossips = append(in.Gossips, sampleGossip(uint64(100+i)))
		}
		whole, err := Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		limit := len(whole) / 4
		chunks, err := SplitBatch(in, limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) < 4 {
			t.Fatalf("%s: split into %d chunks under a quarter-size limit", name, len(chunks))
		}
		var reassembled []core.Gossip
		for i, c := range chunks {
			enc, err := Encode(c)
			if err != nil {
				t.Fatal(err)
			}
			if len(enc) > limit {
				t.Errorf("%s: chunk %d encodes to %d bytes, above the %d limit", name, i, len(enc), limit)
			}
			if got, want := partNames(c.tail()), partNames(in.tail()); i == 0 && fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: chunk 0 carries membership sections %v, want %v", name, got, want)
			} else if i > 0 && len(got) > 0 {
				t.Errorf("%s: chunk %d repeats membership sections %v", name, i, got)
			}
			reassembled = append(reassembled, c.Gossips...)
		}
		if len(reassembled) != len(in.Gossips) {
			t.Fatalf("%s: reassembled %d gossips, want %d", name, len(reassembled), len(in.Gossips))
		}
		for i := range in.Gossips {
			if reassembled[i].Event.ID() != in.Gossips[i].Event.ID() {
				t.Fatalf("%s: gossip %d out of order after split", name, i)
			}
		}
	}
}

func TestSplitBatchFitsInOne(t *testing.T) {
	in := sampleBatch(2)
	chunks, err := SplitBatch(in, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 || len(chunks[0].Gossips) != 2 {
		t.Errorf("chunks = %+v", chunks)
	}
}

// TestSplitBatchExactBudgets sweeps limits across a large batch — including
// the 128-gossip boundary where a chunk's count varint grows to two bytes —
// and demands that every produced chunk encodes within the limit, that
// nothing is lost or reordered, and that a refusal only happens when some
// chunk genuinely cannot fit.
func TestSplitBatchExactBudgets(t *testing.T) {
	in := fullBatch()
	in.Gossips = in.Gossips[:0]
	for i := 0; i < 200; i++ {
		in.Gossips = append(in.Gossips, sampleGossip(uint64(i+1)))
	}
	total, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	// minViable: the membership chunk and the largest standalone-gossip
	// chunk must both fit for a split to be possible.
	minViable := 0
	for _, g := range in.Gossips {
		if s := EncodedSize(g); s > minViable {
			minViable = s
		}
	}
	if s := EncodedSize(in.tail()); s > minViable {
		minViable = s
	}
	for limit := minViable - 10; limit <= len(total)+10; limit += 3 {
		chunks, err := SplitBatch(in, limit)
		if err != nil {
			if limit >= minViable {
				t.Fatalf("limit %d (≥ viable %d) refused: %v", limit, minViable, err)
			}
			continue
		}
		got := 0
		for i, c := range chunks {
			enc, err := Encode(c)
			if err != nil {
				t.Fatal(err)
			}
			if len(enc) > limit {
				t.Fatalf("limit %d: chunk %d (%d gossips) encodes to %d bytes",
					limit, i, len(c.Gossips), len(enc))
			}
			for _, g := range c.Gossips {
				if want := in.Gossips[got].Event.ID(); g.Event.ID() != want {
					t.Fatalf("limit %d: gossip %d out of order", limit, got)
				}
				got++
			}
		}
		if got != len(in.Gossips) {
			t.Fatalf("limit %d: %d of %d gossips survived the split", limit, got, len(in.Gossips))
		}
	}
}

// TestSplitBatchOversizedPiggyback: membership sections that alone exceed the
// limit are a refusal, never an oversized first chunk — an update too long,
// or one join record too big.
func TestSplitBatchOversizedPiggyback(t *testing.T) {
	recs := make([]membership.Record, 100)
	for i := range recs {
		recs[i] = membership.Record{Addr: addr.New(i, i), Sub: sampleSub(), Stamp: uint64(i), Alive: true}
	}
	many := make([]string, 60)
	for i := range many {
		many[i] = fmt.Sprintf("symbol-%03d", i)
	}
	bigSub := interest.NewSubscription().Where("e", interest.OneOf(many...))
	for name, b := range map[string]Batch{
		"update": {
			Gossips: []core.Gossip{sampleGossip(1)},
			Update:  &membership.Update{From: addr.New(0), Records: recs},
		},
		"join record": {
			Gossips: []core.Gossip{sampleGossip(1)},
			Join:    &membership.JoinRequest{Joiner: membership.Record{Addr: addr.New(1, 1), Sub: bigSub, Stamp: 1, Alive: true}, Hops: 2},
		},
	} {
		if s := EncodedSize(b.tail()); s <= 300 {
			t.Fatalf("%s: the membership sections take %d bytes, not above the 300-byte limit", name, s)
		}
		chunks, err := SplitBatch(b, 300)
		if !errors.Is(err, ErrOversized) {
			for i, c := range chunks {
				if enc, encErr := Encode(c); encErr == nil && len(enc) > 300 {
					t.Errorf("%s: chunk %d is %d bytes, above the 300-byte limit", name, i, len(enc))
				}
			}
			t.Errorf("%s: oversized membership sections split with error %v, want ErrOversized", name, err)
		}
	}
}

func TestSplitBatchOversizedGossip(t *testing.T) {
	big := core.Gossip{
		Event: event.NewBuilder().Str("payload", string(make([]byte, 4096))).
			Build(event.ID{Origin: "x", Seq: 1}),
	}
	if _, err := SplitBatch(Batch{Gossips: []core.Gossip{big}}, 256); err == nil {
		t.Error("gossip above the limit split without error")
	}
}

func TestBatchDecodeRejectsGarbage(t *testing.T) {
	good, err := Encode(fullBatch())
	if err != nil {
		t.Fatal(err)
	}
	// Flags that contradict each other.
	bad := append([]byte(nil), good...)
	bad[0] &^= hasGossips
	if _, err := Decode(bad); err == nil {
		t.Error("a gossip count without gossips accepted")
	}
	// Corrupted section length.
	bad = append([]byte(nil), good...)
	bad[1] = 0xff
	if _, err := Decode(bad); err == nil {
		t.Error("corrupt gossip count accepted")
	}
	// Truncation anywhere must error, never panic.
	for cut := 1; cut < len(good); cut++ {
		if _, err := Decode(good[:cut]); err == nil {
			t.Errorf("truncated batch of %d/%d bytes accepted", cut, len(good))
		}
	}
}

// TestBatchEncodeDecodeEncodeIdentity is the canonical-form contract the
// fuzz targets rely on: whatever Decode accepts re-encodes to a stable byte
// string.
func TestBatchEncodeDecodeEncodeIdentity(t *testing.T) {
	enc1, err := Encode(fullBatch())
	if err != nil {
		t.Fatal(err)
	}
	mid, err := Decode(enc1)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := Encode(mid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Errorf("encode→decode→encode differs:\n%x\n%x", enc1, enc2)
	}
}

// TestBatchCodecAllocBudget pins the zero-alloc wire path: steady-state
// encoding into a reused buffer allocates nothing, and steady-state decoding
// with an interning Decoder costs at most one allocation per event (the
// event's attribute storage) plus a constant few for the batch itself.
func TestBatchCodecAllocBudget(t *testing.T) {
	const events = 16
	in := sampleBatch(events)

	buf := make([]byte, 0, 64<<10)
	encAllocs := testing.AllocsPerRun(200, func() {
		buf = AppendBatch(buf[:0], in)[:0]
	})
	if encAllocs != 0 {
		t.Errorf("batch encode allocates %.1f times per op, want 0", encAllocs)
	}

	data, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	decAllocs := testing.AllocsPerRun(200, func() {
		b, err := dec.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Gossips) != events {
			t.Fatalf("decoded %d gossips", len(b.Gossips))
		}
	})
	// ≤ 1 alloc/event: each event's attribute slice, plus a constant for the
	// gossip slice.
	if limit := float64(events) + 4; decAllocs > limit {
		t.Errorf("batch decode allocates %.1f times per op for %d events, want ≤ %.0f",
			decAllocs, events, limit)
	}
}
