package wire

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/interest"
	"pmcast/internal/membership"
)

func sampleEvent() event.Event {
	return event.NewBuilder().
		Int("b", -42).
		Float("c", 155.6).
		Str("e", "Bob").
		Bool("urgent", true).
		Build(event.ID{Origin: "128.178.73.3", Seq: 77})
}

func sampleSub() interest.Subscription {
	return interest.NewSubscription().
		Where("b", interest.EqInt(2)).
		Where("c", interest.Between(10, 220)).
		Where("e", interest.OneOf("Bob", "Tom")).
		Where("u", interest.IsBool(false))
}

func roundTrip(t *testing.T, msg any) any {
	t.Helper()
	data, err := Encode(msg)
	if err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	out, err := Decode(data)
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	return out
}

func TestGossipRoundTrip(t *testing.T) {
	in := core.Gossip{Event: sampleEvent(), Depth: 3, Rate: 0.4375, Round: 7}
	out := roundTrip(t, in).(core.Gossip)
	if out.Depth != in.Depth || out.Rate != in.Rate || out.Round != in.Round {
		t.Errorf("metadata mismatch: %+v", out)
	}
	if out.Event.ID() != in.Event.ID() {
		t.Errorf("id = %v", out.Event.ID())
	}
	for _, name := range in.Event.Names() {
		if !out.Event.Attr(name).Equal(in.Event.Attr(name)) {
			t.Errorf("attr %s = %v, want %v", name, out.Event.Attr(name), in.Event.Attr(name))
		}
	}
}

func TestDigestRoundTrip(t *testing.T) {
	in := membership.Digest{
		From: addr.New(1, 2, 3),
		Hash: math.MaxUint64,
		Entries: []membership.DigestEntry{
			{Key: "0.0.1", Stamp: 5},
			{Key: "2.9.1", Stamp: math.MaxUint64},
		},
	}
	out := roundTrip(t, in).(membership.Digest)
	if !out.From.Equal(in.From) || out.Len() != 2 {
		t.Fatalf("digest = %+v", out)
	}
	if out.Hash != in.Hash {
		t.Errorf("hash = %d, want %d", out.Hash, in.Hash)
	}
	if got := slices.Collect(out.Lines); !slices.Equal(got, in.Entries) {
		t.Errorf("lines = %+v, want %+v", got, in.Entries)
	}
}

// rosterService returns a roster-mode service — the node at position self —
// over the returned roster, which fills space with line i at stamp(i).
func rosterService(t testing.TB, space addr.Space, self int, stamp func(i int) uint64) (*membership.Service, *membership.Roster) {
	t.Helper()
	recs := make([]membership.Record, space.Capacity())
	for i := range recs {
		recs[i] = membership.Record{Addr: space.AddressAt(i), Sub: sampleSub(), Stamp: stamp(i), Alive: true}
	}
	base, err := membership.NewRoster(recs)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := membership.NewWithRoster(membership.Config{Self: space.AddressAt(self), Space: space, R: 2}, base)
	if err != nil {
		t.Fatal(err)
	}
	return svc, base
}

// overlayForm returns the service's full digest, which must be the overlay
// form: only the membership package can build one.
func overlayForm(t testing.TB, svc *membership.Service, lines int) membership.Digest {
	t.Helper()
	d := svc.MakeDigest()
	if d.Entries != nil || d.Len() != lines {
		t.Fatalf("roster-mode digest: %d entries, %d lines; want the overlay form of %d lines",
			len(d.Entries), d.Len(), lines)
	}
	return d
}

// OverlayDigest returns the full digest of a roster-mode service that
// diverged from its 16-line base on three lines, two of them tombstones.
// Exported to the fuzz targets' external test package.
func OverlayDigest(t testing.TB) membership.Digest {
	t.Helper()
	space := addr.MustRegular(4, 2)
	svc, base := rosterService(t, space, 6, func(int) uint64 { return 1 })
	svc.Subscribe(interest.NewSubscription())
	svc.HandleLeave(membership.Leave{Addr: space.AddressAt(2), Stamp: 1})
	svc.HandleLeave(membership.Leave{Addr: space.AddressAt(11), Stamp: 5})
	return overlayForm(t, svc, len(base.Records))
}

// overlayDigestOver returns the full digest of a roster-mode service over the
// returned roster (line i at stamp(i)) after it learned the stamps in bumped:
// its overlay is its own line (position 0, stamp unchanged) and the bumped
// ones.
func overlayDigestOver(t testing.TB, space addr.Space, stamp func(i int) uint64, bumped map[int]uint64) (membership.Digest, *membership.Roster) {
	t.Helper()
	svc, base := rosterService(t, space, 0, stamp)
	upd := membership.Update{From: space.AddressAt(1)}
	for i, st := range bumped {
		rec := base.Records[i] // address-sorted, which is position order
		rec.Stamp = st
		upd.Records = append(upd.Records, rec)
	}
	if got := svc.Apply(upd); got != len(bumped) {
		t.Fatalf("applied %d of %d bumped lines", got, len(bumped))
	}
	return overlayForm(t, svc, len(base.Records)), base
}

// TestOverlayDigestDecodesToEntriesForm: the wire knows one digest body. An
// overlay-form digest encodes as the list of its lines — byte for byte what
// the same lines in entries form encode to, alone or in a batch tail, and
// EncodedSize agrees — and decodes to the entries form with the same lines.
func TestOverlayDigestDecodesToEntriesForm(t *testing.T) {
	in := OverlayDigest(t)
	lines := slices.Collect(in.Lines)
	plain := membership.Digest{From: in.From, Hash: in.Hash, Count: in.Count, Entries: lines}
	for name, pair := range map[string][2]any{
		"bare":  {in, plain},
		"batch": {Batch{Gossips: sampleBatch(2).Gossips, Digest: &in}, Batch{Gossips: sampleBatch(2).Gossips, Digest: &plain}},
	} {
		enc, err := Encode(pair[0])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want, _ := Encode(pair[1]); !bytes.Equal(enc, want) {
			t.Errorf("%s: overlay form encodes differently from its lines in entries form", name)
		}
		if got := EncodedSize(pair[0]); got != len(enc) {
			t.Errorf("%s: EncodedSize = %d, encoded %d bytes", name, got, len(enc))
		}
		msg, err := Decode(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, ok := msg.(membership.Digest)
		if b, isBatch := msg.(Batch); isBatch && b.Digest != nil {
			out, ok = *b.Digest, true
		}
		if !ok {
			t.Fatalf("%s: decoded %T carries no digest", name, msg)
		}
		if !out.From.Equal(in.From) || out.Hash != in.Hash || out.Count != in.Count {
			t.Errorf("%s: header = %+v", name, out)
		}
		if !slices.Equal(out.Entries, lines) {
			t.Errorf("%s: decoded entries = %+v, want the sender's lines %+v", name, out.Entries, lines)
		}
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	in := membership.Update{
		From: addr.New(0, 1),
		Records: []membership.Record{
			{Addr: addr.New(1, 1), Sub: sampleSub(), Stamp: 9, Alive: true},
			{Addr: addr.New(2, 2), Sub: interest.NewSubscription(), Stamp: 3, Alive: false},
		},
	}
	out := roundTrip(t, in).(membership.Update)
	if len(out.Records) != 2 {
		t.Fatalf("records = %d", len(out.Records))
	}
	r0 := out.Records[0]
	if !r0.Addr.Equal(addr.New(1, 1)) || r0.Stamp != 9 || !r0.Alive {
		t.Errorf("record 0 = %+v", r0)
	}
	if !r0.Sub.Equal(sampleSub()) {
		t.Errorf("subscription = %v, want %v", r0.Sub, sampleSub())
	}
	if out.Records[1].Alive || !out.Records[1].Sub.IsMatchAll() {
		t.Errorf("record 1 = %+v", out.Records[1])
	}
}

func TestJoinAndLeaveRoundTrip(t *testing.T) {
	jr := membership.JoinRequest{
		Joiner: membership.Record{Addr: addr.New(3, 1), Sub: sampleSub(), Stamp: 1, Alive: true},
		Hops:   4,
	}
	out := roundTrip(t, jr).(membership.JoinRequest)
	if out.Hops != 4 || !out.Joiner.Addr.Equal(addr.New(3, 1)) || !out.Joiner.Sub.Equal(sampleSub()) {
		t.Errorf("join = %+v", out)
	}
	lv := membership.Leave{Addr: addr.New(3, 1), Stamp: 12}
	if got := roundTrip(t, lv).(membership.Leave); !got.Addr.Equal(lv.Addr) || got.Stamp != lv.Stamp {
		t.Errorf("leave = %+v", got)
	}
}

func TestSubscriptionSemanticsPreserved(t *testing.T) {
	// Round-tripped subscriptions must match exactly the same events.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		sub := interest.NewSubscription()
		if rng.Intn(2) == 0 {
			lo := float64(rng.Intn(50))
			sub = sub.Where("b", interest.Between(lo, lo+float64(rng.Intn(30))))
		}
		if rng.Intn(2) == 0 {
			sub = sub.Where("e", interest.OneOf("x", "y", "z"))
		}
		if rng.Intn(2) == 0 {
			sub = sub.Where("z", interest.Le(float64(rng.Intn(100))))
		}
		u := membership.Update{Records: []membership.Record{{Addr: addr.New(0), Sub: sub, Stamp: 1, Alive: true}}}
		got := roundTrip(t, u).(membership.Update).Records[0].Sub
		for probe := 0; probe < 50; probe++ {
			names := []string{"x", "y", "z", "w"}
			ev := event.NewBuilder().
				Float("b", float64(rng.Intn(100))).
				Str("e", names[rng.Intn(4)]).
				Float("z", float64(rng.Intn(120))).
				Build(event.ID{Origin: "p", Seq: 1})
			if sub.Matches(ev) != got.Matches(ev) {
				t.Fatalf("semantics changed: %v vs %v on %v", sub, got, ev)
			}
		}
	}
}

func TestSummaryBinaryRoundTrip(t *testing.T) {
	sum := interest.Summarize(
		interest.NewSubscription().Where("b", interest.Gt(3)),
		interest.NewSubscription().Where("e", interest.OneOf("Tom")),
	)
	data, err := sum.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got interest.Summary
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	evHit := event.NewBuilder().Float("b", 4).Build(event.ID{Origin: "p", Seq: 1})
	evMiss := event.NewBuilder().Float("b", 1).Str("e", "Ann").Build(event.ID{Origin: "p", Seq: 2})
	if !got.Matches(evHit) || got.Matches(evMiss) {
		t.Errorf("summary semantics lost: %v", &got)
	}
}

func TestAddressBinaryRoundTrip(t *testing.T) {
	in := addr.New(128, 178, 73, 3)
	data, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out addr.Address
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(in) {
		t.Errorf("address = %v", out)
	}
}

func TestEventBinaryRoundTrip(t *testing.T) {
	in := sampleEvent()
	data, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out event.Event
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if out.ID() != in.ID() || out.Len() != in.Len() {
		t.Fatalf("event = %v", out)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("empty frame accepted")
	}
	if _, err := Decode([]byte{99}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Decode([]byte{kindGossip, 0xff}); err == nil {
		t.Error("truncated gossip accepted")
	}
	if _, err := Encode("not a message"); err == nil {
		t.Error("foreign type accepted")
	}
	// Trailing bytes rejected.
	good, err := Encode(membership.Leave{Addr: addr.New(1), Stamp: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(good, 0x00)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestDecodeFuzzLikeCorruption(t *testing.T) {
	// Random mutations of valid frames must never panic; errors are fine.
	msgs := []any{
		core.Gossip{Event: sampleEvent(), Depth: 2, Rate: 0.5, Round: 3},
		membership.Digest{From: addr.New(1, 2), Entries: []membership.DigestEntry{{Key: "a", Stamp: 1}}},
		membership.Update{From: addr.New(1, 2), Records: []membership.Record{{Addr: addr.New(0, 0), Sub: sampleSub(), Stamp: 2, Alive: true}}},
	}
	rng := rand.New(rand.NewSource(7))
	for _, msg := range msgs {
		data, err := Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 500; trial++ {
			mut := make([]byte, len(data))
			copy(mut, data)
			for k := 0; k <= rng.Intn(3); k++ {
				mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
			}
			if rng.Intn(4) == 0 && len(mut) > 2 {
				mut = mut[:rng.Intn(len(mut))]
			}
			_, _ = Decode(mut) // must not panic
		}
	}
}
