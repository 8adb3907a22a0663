// Native fuzz targets for the wire codec. The seed corpus is captured from
// real traffic: a small step-mode fleet runs the live join/gossip/anti-
// entropy protocol over the in-memory fabric, and every batch an endpoint
// sends is encoded into a seed frame. The fuzz properties are the codec's two
// contracts: arbitrary bytes never panic, and whatever decodes re-encodes to
// a stable canonical byte string (encode→decode→encode identity).
package wire_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"pmcast/internal/addr"
	"pmcast/internal/binenc"
	"pmcast/internal/clock"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/interest"
	"pmcast/internal/node"
	"pmcast/internal/transport"
	"pmcast/internal/wire"
)

// captureCorpus runs a deterministic 8-node step-mode fleet and returns the
// encoded form of every distinct payload shape the fleet sent, capped to
// keep the seed corpus small.
func captureCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	var frames [][]byte
	seen := make(map[string]bool)
	vc := clock.NewVirtual()
	fab := sendRecorder{transport.MustNetwork(transport.Config{Clock: vc}), func(payload any) {
		data, err := wire.Encode(payload)
		if err != nil || len(frames) >= 64 {
			return
		}
		// Dedup by frame bytes so the corpus spans shapes, not repeats.
		if !seen[string(data)] {
			seen[string(data)] = true
			frames = append(frames, data)
		}
	}}
	defer fab.Close()

	space := addr.MustRegular(4, 2)
	nodes := make([]*node.Node, 0, 8)
	for i := 0; i < 8; i++ {
		n, err := node.New(fab, node.Config{
			Addr:  space.AddressAt(i),
			Space: space,
			R:     2, F: 3, C: 3,
			Subscription: interest.NewSubscription().
				Where("b", interest.EqInt(int64(i%2))),
			Clock: vc,
			Seed:  int64(i + 1),
		})
		if err != nil {
			tb.Fatal(err)
		}
		defer n.Stop()
		nodes = append(nodes, n)
	}
	pump := func() {
		for moved := true; moved; {
			moved = false
			for _, n := range nodes {
				if n.PumpInbox() > 0 {
					moved = true
				}
			}
		}
	}
	for _, n := range nodes[1:] {
		if err := n.Join(nodes[0].Addr()); err != nil {
			tb.Fatal(err)
		}
	}
	pump()
	for round := 0; round < 20; round++ {
		if round == 8 {
			for k, n := range []*node.Node{nodes[0], nodes[3]} {
				_, err := n.Publish(map[string]event.Value{
					"b": event.Int(int64(k)),
					"c": event.Float(1.5),
					"e": event.Str("soak"),
				})
				if err != nil {
					tb.Fatal(err)
				}
			}
		}
		for _, n := range nodes {
			n.TickMembership()
		}
		pump()
		for _, n := range nodes {
			n.TickGossip()
		}
		pump()
	}
	if len(frames) == 0 {
		tb.Fatal("mini-fleet routed no traffic — corpus capture broken")
	}
	return frames
}

// sendRecorder wraps a fabric so every endpoint it attaches reports each
// payload it sends before handing it on.
type sendRecorder struct {
	transport.Transport
	record func(payload any)
}

func (s sendRecorder) Attach(a addr.Address) (transport.Endpoint, error) {
	ep, err := s.Transport.Attach(a)
	if err != nil {
		return nil, err
	}
	return recordingEndpoint{ep, s.record}, nil
}

type recordingEndpoint struct {
	transport.Endpoint
	record func(payload any)
}

func (e recordingEndpoint) Send(to addr.Address, payload any) error {
	e.record(payload)
	return e.Endpoint.Send(to, payload)
}

// reencode asserts the canonical-form contract on one decoded message.
func reencode(t *testing.T, msg any) []byte {
	t.Helper()
	enc1, err := wire.Encode(msg)
	if err != nil {
		t.Fatalf("decoded %T fails to re-encode: %v", msg, err)
	}
	msg2, err := wire.Decode(enc1)
	if err != nil {
		t.Fatalf("canonical encoding of %T fails to decode: %v", msg, err)
	}
	enc2, err := wire.Encode(msg2)
	if err != nil {
		t.Fatalf("re-decoded %T fails to re-encode: %v", msg, err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("encode→decode→encode differs for %T:\n%x\n%x", msg, enc1, enc2)
	}
	return enc1
}

// eventSizeHolds asserts the size an event memoised at construction is the
// size its encoding has.
func eventSizeHolds(t *testing.T, ev event.Event) {
	t.Helper()
	if got, want := event.WireSize(ev), len(event.AppendEvent(nil, ev)); got != want {
		t.Fatalf("WireSize(%v) = %d, AppendEvent emits %d bytes", ev, got, want)
	}
}

// FuzzWireRoundTrip feeds arbitrary bytes to the frame decoder: it must
// never panic, and every frame it accepts must re-encode canonically — to
// exactly as many bytes as the size walk says — and decode identically
// through the interning Decoder. Every event it decodes carries the size
// its encoding has, and so does the event re-identified.
func FuzzWireRoundTrip(f *testing.F) {
	for _, frame := range captureCorpus(f) {
		f.Add(frame)
	}
	// The captured fleet joins one by one, so each digest lists its sender's
	// private, rebased table; a bootstrapped fleet shares one roster and
	// sends this one, diverging on a few lines.
	overlay := wire.OverlayDigest(f)
	f.Add(mustEncode(f, wire.Batch{Digest: &overlay}))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add(mustEncode(f, wire.EverySection(f))) // every section a frame can flag
	dec := wire.NewDecoder()
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := wire.Decode(data)
		if err != nil {
			return // malformed input is fine; panics are not
		}
		enc1 := reencode(t, msg)
		if got := wire.EncodedSize(msg); got != len(enc1) {
			t.Fatalf("EncodedSize = %d, encoded %d bytes", got, len(enc1))
		}
		for _, g := range msg.Gossips {
			eventSizeHolds(t, g.Event)
			eventSizeHolds(t, g.Event.WithID(event.ID{Origin: "a re-identified origin", Seq: g.Event.ID().Seq + 1<<40}))
		}
		// The interning decoder must agree with the plain one byte-for-byte
		// after re-encoding (interning changes allocations, not values).
		msg3, err := dec.Decode(data)
		if err != nil {
			t.Fatalf("Decoder rejects a frame Decode accepted: %v", err)
		}
		enc3, err := wire.Encode(msg3)
		if err != nil {
			t.Fatalf("Decoder result fails to encode: %v", err)
		}
		if !bytes.Equal(enc1, enc3) {
			t.Fatalf("interned decode diverges:\n%x\n%x", enc1, enc3)
		}
	})
}

// FuzzCompiledMatchParity holds the matching engine's index to its oracle
// under adversarial inputs: arbitrary bytes decode into a subscription, an
// event and a view (through the same codecs the wire path uses), and
// whatever decodes must match identically through the interpretive path and
// the index — as a bare subscription, as a regrouped summary, and, in the
// view arm, as the lines of one view: 2–6 summaries folded from the third
// input (each a bound and a run of subscriptions, added in order, so any
// bound and any subscriptions the wire carries), plus a duplicate of the
// first under its language name, a match-all line and an empty one. Lines
// of equal fingerprint share a name, as in the tree's store. Every line's answer from
// one probe, and from its handle, must be Summary.Matches. The seed corpus is
// the wire fuzz corpus: every event the captured mini-fleet gossiped
// (extracted from its frames) paired with every subscription shape the
// fleet used, and a view of the summaries of three of them.
func FuzzCompiledMatchParity(f *testing.F) {
	var evSeeds [][]byte
	var subSeeds [][]byte
	addEvent := func(ev event.Event) {
		if data, err := ev.MarshalBinary(); err == nil {
			evSeeds = append(evSeeds, data)
		}
	}
	for _, frame := range captureCorpus(f) {
		m, err := wire.Decode(frame)
		if err != nil {
			continue
		}
		for _, g := range m.Gossips {
			addEvent(g.Event)
		}
		if m.Update != nil {
			for _, rec := range m.Update.Records {
				if data, err := rec.Sub.MarshalBinary(); err == nil {
					subSeeds = append(subSeeds, data)
				}
			}
		}
	}
	// Always-present seeds so the pairing fuzzes even if capture shapes
	// drift: a multi-criterion subscription and a multi-attribute event.
	richSub := interest.NewSubscription().
		Where("b", interest.EqInt(2)).
		Where("c", interest.Between(10, 220)).
		Where("e", interest.OneOf("Bob", "Tom"))
	if data, err := richSub.MarshalBinary(); err == nil {
		subSeeds = append(subSeeds, data)
	}
	richEv := event.NewBuilder().Int("b", 2).Float("c", 155.5).Str("e", "Bob").Build(event.ID{Origin: "seed", Seq: 1})
	// A NaN attribute must satisfy no numeric criterion on either side.
	nanEv := event.NewBuilder().Int("b", 2).Float("c", math.NaN()).Str("e", "Bob").Build(event.ID{Origin: "seed", Seq: 2})
	for _, ev := range []event.Event{richEv, nanEv} {
		if data, err := ev.MarshalBinary(); err == nil {
			evSeeds = append(evSeeds, data)
		}
	}
	if len(subSeeds) == 0 || len(evSeeds) == 0 {
		f.Fatal("corpus capture yielded no subscription/event seeds")
	}
	for i, sb := range subSeeds {
		var view []byte
		for k := 0; k < 3; k++ {
			view = binenc.AppendUvarint(view, uint64(interest.DefaultMaxDisjuncts))
			view = binenc.AppendUvarint(view, 1)
			view = append(view, subSeeds[(i+k)%len(subSeeds)]...)
		}
		for _, eb := range evSeeds {
			f.Add(sb, eb, view)
		}
	}
	f.Fuzz(func(t *testing.T, subBytes, evBytes, viewBytes []byte) {
		var sub interest.Subscription
		if err := sub.UnmarshalBinary(subBytes); err != nil {
			return // malformed subscription: nothing to compare
		}
		var ev event.Event
		if err := ev.UnmarshalBinary(evBytes); err != nil {
			return
		}
		want := sub.Matches(ev)
		if got := interest.Compile(sub).Matches(ev); got != want {
			t.Fatalf("compiled subscription diverges: compiled=%v naive=%v\nsub: %s\nevent: %s", got, want, sub, ev)
		}
		sum := interest.Summarize(sub)
		sumWant := sum.Matches(ev)
		if got := interest.CompileSummary(sum).Matches(ev); got != sumWant {
			t.Fatalf("compiled summary diverges: compiled=%v naive=%v\nsummary: %s\nevent: %s", got, sumWant, sum, ev)
		}

		var lines []*interest.Summary
		for r := binenc.NewReader(viewBytes); r.Len() > 0 && len(lines) < 6; {
			s := interest.NewSummaryWithBound(int(r.Uvarint()))
			for k := r.Count(1); k > 0 && r.Err() == nil; k-- {
				s.Add(interest.ReadSubscription(r))
			}
			if r.Err() != nil {
				break
			}
			lines = append(lines, s)
		}
		if len(lines) < 2 {
			return
		}
		lines = append(lines, lines[0].Clone(), interest.Summarize(interest.NewSubscription()), interest.NewSummary())
		langs, names := make([]uint64, len(lines)), make(map[string]uint64)
		for i, s := range lines {
			// A language is named by its disjuncts' encodings, sorted: the
			// order a summary accumulated them in does not change what it
			// matches. A match-all summary is named apart, as the tree's
			// store keys it.
			ds := s.Disjuncts()
			fps := make([]string, len(ds))
			for j, d := range ds {
				fps[j] = d.Fingerprint()
			}
			sort.Strings(fps)
			fp := fmt.Sprintf("%t%t%q", s.IsEmpty(), s.String() == "*", fps)
			if names[fp] == 0 {
				names[fp] = uint64(len(names) + 1)
			}
			langs[i] = names[fp]
		}
		x := interest.NewIndex(lines, langs)
		hits := make([]uint64, x.Blocks())
		x.Probe(ev, hits, nil)
		for i, s := range lines {
			want := s.Matches(ev)
			if got := x.Hit(hits, i); got != want {
				t.Fatalf("view line %d diverges: probe=%v naive=%v\nsummary: %s\nevent: %s", i, got, want, s, ev)
			}
			if got := x.Line(i).Matches(ev); got != want {
				t.Fatalf("view line %d diverges: handle=%v naive=%v\nsummary: %s\nevent: %s", i, got, want, s, ev)
			}
		}
	})
}

// FuzzBatchDecode splits whatever decodes under tight limits: the size of
// the frame, half of it, and a 64-byte budget no real datagram has. Each
// split is a refusal with ErrOversized, or chunks that each fit the limit and
// together carry exactly the batch's parts — gossips in order, every repair
// symbol once, the membership sections on the first chunk and only there.
func FuzzBatchDecode(f *testing.F) {
	for _, frame := range captureCorpus(f) {
		f.Add(frame)
	}
	f.Add(mustEncode(f, wire.EverySection(f)))
	f.Add([]byte{0x07, 0x01, 0x05})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := wire.Decode(data)
		if err != nil {
			return
		}
		reencode(t, b)
		size := wire.EncodedSize(b)
		for _, limit := range []int{size, size / 2, 64} {
			chunks, err := wire.SplitBatch(b, limit)
			if errors.Is(err, wire.ErrOversized) {
				continue
			}
			if err != nil {
				t.Fatalf("limit %d: %v", limit, err)
			}
			var gossips []core.Gossip
			repairs, parts := 0, 0
			for i, c := range chunks {
				if n := len(mustEncode(t, c)); n > limit {
					t.Fatalf("limit %d: chunk %d encodes to %d bytes", limit, i, n)
				}
				gossips = append(gossips, c.Gossips...)
				repairs += c.Repairs()
				parts += c.Parts()
				tail := c.Parts() - len(c.Gossips) - c.Repairs()
				if i > 0 && tail > 0 {
					t.Fatalf("limit %d: chunk %d carries %d membership sections", limit, i, tail)
				}
			}
			if parts != b.Parts() || repairs != b.Repairs() || len(gossips) != len(b.Gossips) {
				t.Fatalf("limit %d: chunks carry %d parts (%d repairs, %d gossips), the batch %d (%d, %d)",
					limit, parts, repairs, len(gossips), b.Parts(), b.Repairs(), len(b.Gossips))
			}
			for i := range gossips {
				if gossips[i].Event.ID() != b.Gossips[i].Event.ID() {
					t.Fatalf("limit %d: split moved gossip %d", limit, i)
				}
			}
		}
	})
}

// FuzzScanAgreesWithRead holds the lazy receive path to the eager one. On
// arbitrary bytes read as one event, event.ScanEvent accepts exactly what
// event.ReadEvent accepts, consumes the same bytes and reads the same ID. On
// the same bytes read as a frame, DecodeLazy accepts exactly what Decode
// accepts; building every section yields Decode's gossips, and the rest of
// the round is Decode's batch. The seeds are captured traffic plus events a
// foreign or broken encoder writes: an unknown value kind, a truncated
// string, attribute names out of order and one named twice.
func FuzzScanAgreesWithRead(f *testing.F) {
	for _, frame := range captureCorpus(f) {
		f.Add(frame)
	}
	g := core.Gossip{Event: event.NewBuilder().Build(event.ID{Origin: "0.1", Seq: 7})}
	one, two := mustEncode(f, g)[0], mustEncode(f, wire.Batch{Gossips: []core.Gossip{g, g}})[0] // flags bytes
	for _, body := range [][]byte{
		foreignEvent(attrBytes("x", 9, 1, 2)),                                                         // an unknown value kind
		foreignEvent(attrBytes("e", byte(event.KindString), 5, 'a', 'b')),                             // a string cut short
		foreignEvent(attrBytes("e", byte(event.KindInt), 4), attrBytes("a", byte(event.KindBool), 1)), // out of order
		foreignEvent(attrBytes("e", byte(event.KindInt), 4), attrBytes("a", byte(event.KindBool), 1),
			attrBytes("e", byte(event.KindFloat), 0, 0, 0, 0, 0, 0, 0xf8, 0x7f)), // "e" twice, the last a NaN
	} {
		f.Add(body)
		section := binenc.AppendUvarint(body, 2)                      // depth
		section = binenc.AppendFloat(section, 0.5)                    // rate
		section = binenc.AppendUvarint(section, 3)                    // round
		f.Add(append([]byte{one}, section...))                        // a batch of one
		f.Add(append(append([]byte{two, 2}, section...), section...)) // a batch of two copies
	}
	dec, lazy := wire.NewDecoder(), wire.NewDecoder()
	f.Fuzz(func(t *testing.T, data []byte) {
		read, scan := binenc.NewReader(data), binenc.NewReader(data)
		ev := event.ReadEvent(read)
		origin, seq := event.ScanEvent(scan)
		if (read.Err() == nil) != (scan.Err() == nil) || read.Len() != scan.Len() {
			t.Fatalf("ReadEvent: %v, %d bytes left; ScanEvent: %v, %d bytes left", read.Err(), read.Len(), scan.Err(), scan.Len())
		}
		if read.Err() == nil && (string(origin) != ev.ID().Origin || seq != ev.ID().Seq) {
			t.Fatalf("ScanEvent read %q#%d, ReadEvent %v", origin, seq, ev.ID())
		}

		batch, err := dec.Decode(data)
		rd, lazyErr := lazy.DecodeLazy(data)
		if (err == nil) != (lazyErr == nil) {
			t.Fatalf("Decode: %v; DecodeLazy: %v", err, lazyErr)
		}
		if err != nil {
			return
		}
		built := make([]core.Gossip, 0, len(rd.Sections))
		for _, s := range rd.Sections {
			ev, err := lazy.Event(s.Body)
			if err != nil {
				t.Fatalf("a scanned section does not build: %v", err)
			}
			if string(s.Origin) != ev.ID().Origin || s.Seq != ev.ID().Seq {
				t.Fatalf("section reads %q#%d, builds %v", s.Origin, s.Seq, ev.ID())
			}
			built = append(built, core.Gossip{Event: ev, Depth: s.Depth, Rate: s.Rate, Round: s.Round})
		}
		// DeepEqual holds NaN unequal to itself; the bits must still agree.
		if !reflect.DeepEqual(built, batch.Gossips) &&
			!bytes.Equal(mustEncode(t, wire.Batch{Gossips: built}), mustEncode(t, wire.Batch{Gossips: batch.Gossips})) {
			t.Fatalf("sections build\n%+v\nDecode read\n%+v", built, batch.Gossips)
		}
		for i := range built {
			if event.WireSize(built[i].Event) != event.WireSize(batch.Gossips[i].Event) {
				t.Fatalf("section %d builds an event of size %d, Decode's is %d", i, event.WireSize(built[i].Event), event.WireSize(batch.Gossips[i].Event))
			}
		}
		batch.Gossips = nil
		if !bytes.Equal(mustEncode(t, rd.Batch), mustEncode(t, batch)) {
			t.Fatalf("the round's other parts %+v, Decode's %+v", rd.Batch, batch)
		}
	})
}

// mustEncode frames one message.
func mustEncode(tb testing.TB, msg any) []byte {
	tb.Helper()
	data, err := wire.Encode(msg)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// foreignEvent writes an event body by hand, attribute by attribute, as an
// encoder other than event.AppendEvent might.
func foreignEvent(attrs ...[]byte) []byte {
	b := event.AppendID(nil, event.ID{Origin: "0.1", Seq: 7})
	b = binenc.AppendUvarint(b, uint64(len(attrs)))
	for _, a := range attrs {
		b = append(b, a...)
	}
	return b
}

// attrBytes is one attribute's wire form: its name, then a value's kind byte
// and payload as given.
func attrBytes(name string, kind byte, payload ...byte) []byte {
	return append(append(binenc.AppendString(nil, name), kind), payload...)
}
