package udp

import (
	"errors"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/interest"
	"pmcast/internal/membership"
	"pmcast/internal/transport"
	"pmcast/internal/wire"
)

// pair attaches two loopback endpoints that can resolve each other.
func pair(t *testing.T) (transport.Endpoint, transport.Endpoint, *Transport) {
	t.Helper()
	res, err := NewStaticResolver(map[string]string{
		"0.0": "127.0.0.1:0",
		"0.1": "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{Resolver: res})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	a, err := tr.Attach(addr.MustParse("0.0"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Attach(addr.MustParse("0.1"))
	if err != nil {
		t.Fatal(err)
	}
	return a, b, tr
}

// TestStaticResolverRejectsAliasedKeys: keys that parse to one address
// would leave map order to pick the socket, so the table refuses them and
// names both keys.
func TestStaticResolverRejectsAliasedKeys(t *testing.T) {
	for _, alias := range []string{"0.01", "00.1"} {
		_, err := NewStaticResolver(map[string]string{
			"0.1": "127.0.0.1:7701",
			alias: "127.0.0.1:7702",
		})
		if err == nil {
			t.Fatalf("keys 0.1 and %s accepted", alias)
		}
		for _, key := range []string{`"0.1"`, `"` + alias + `"`} {
			if !strings.Contains(err.Error(), key) {
				t.Errorf("error %q does not name key %s", err, key)
			}
		}
	}
}

func recvOne(t *testing.T, ep transport.Endpoint) transport.Envelope {
	t.Helper()
	out := make([]transport.Envelope, 1)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		k, open := ep.Inbox().Drain(out)
		if k == 1 {
			return out[0]
		}
		if !open {
			t.Fatal("inbox closed early")
		}
	}
	t.Fatal("no datagram arrived")
	panic("unreachable")
}

// decodeFrame unframes the transport.Raw an envelope carries, the way the
// node decodes every frame the transport hands over.
func decodeFrame(t *testing.T, env transport.Envelope) wire.Batch {
	t.Helper()
	raw, ok := env.Payload.(transport.Raw)
	if !ok {
		t.Fatalf("payload = %T, want transport.Raw", env.Payload)
	}
	defer raw.Release()
	b, err := wire.NewDecoder().Decode(raw.Frame)
	if err != nil {
		t.Fatalf("decoding frame: %v", err)
	}
	return b
}

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
		Where("e", interest.OneOf("Bob", "Tom"))
}

// TestEveryWireKindRoundTrips ships each protocol message kind through a
// real loopback socket and asserts the decoded payload is identical to what
// the in-memory fabric would have handed over.
func TestEveryWireKindRoundTrips(t *testing.T) {
	a, b, _ := pair(t)
	gossip := core.Gossip{Event: sampleEvent(), Depth: 3, Rate: 0.4375, Round: 7}
	digest := membership.Digest{
		From: addr.New(0, 0),
		Entries: []membership.DigestEntry{
			{Key: "0.0", Stamp: 5},
			{Key: "0.1", Stamp: 9},
		},
	}
	update := membership.Update{
		From: addr.New(0, 0),
		Records: []membership.Record{
			{Addr: addr.New(0, 1), Sub: sampleSub(), Stamp: 9, Alive: true},
			{Addr: addr.New(0, 0), Sub: interest.NewSubscription(), Stamp: 3, Alive: false},
		},
	}
	join := membership.JoinRequest{
		Joiner: membership.Record{Addr: addr.New(0, 0), Sub: sampleSub(), Stamp: 1, Alive: true},
		Hops:   4,
	}
	leave := membership.Leave{Addr: addr.New(0, 0), Stamp: 12}
	overlay := overlayDigest(t)
	hb := membership.Heartbeat{}
	msgs := []wire.Batch{
		{Gossips: []core.Gossip{gossip}},
		{Digest: &digest},
		{Update: &update},
		{Join: &join},
		{Leave: &leave},
		{Digest: &overlay, Heartbeat: &hb},
		{Gossips: []core.Gossip{gossip, gossip}, Update: &update, Digest: &overlay, Heartbeat: &hb, Join: &join, Leave: &leave},
	}
	for i, msg := range msgs {
		if err := a.Send(b.Addr(), msg); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		env := recvOne(t, b)
		if !env.From.Equal(a.Addr()) || !env.To.Equal(b.Addr()) {
			t.Errorf("batch %d addressed %s → %s", i, env.From, env.To)
		}
		if got := decodeFrame(t, env); !batchEqual(got, msg) {
			t.Errorf("batch %d mutated in flight:\n got %+v\nwant %+v", i, got, msg)
		}
	}
}

// overlayDigest returns what a bootstrapped fleet's services send: the full
// digest of a roster-mode service, here two lines off its four-line base.
func overlayDigest(t *testing.T) membership.Digest {
	t.Helper()
	space := addr.MustRegular(2, 2)
	recs := make([]membership.Record, space.Capacity())
	for i := range recs {
		recs[i] = membership.Record{Addr: space.AddressAt(i), Sub: sampleSub(), Stamp: 1, Alive: true}
	}
	base, err := membership.NewRoster(recs)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := membership.NewWithRoster(membership.Config{Self: space.AddressAt(0), Space: space, R: 2}, base)
	if err != nil {
		t.Fatal(err)
	}
	svc.Subscribe(interest.NewSubscription())
	svc.HandleLeave(membership.Leave{Addr: space.AddressAt(3), Stamp: 4})
	d := svc.MakeDigest()
	if d.Entries != nil || d.Len() != len(recs) {
		t.Fatalf("roster-mode digest carries %d entries and lists %d lines; want the overlay form of %d", len(d.Entries), d.Len(), len(recs))
	}
	return d
}

// batchEqual compares batches up to event and subscription semantics (events
// hide their attributes behind an unexported map, and the codec
// canonicalizes a subscription's criterion order); a digest arrives as the
// list of its lines whatever form it left in.
func batchEqual(got, want wire.Batch) bool {
	if got.Parts() != want.Parts() || len(got.Gossips) != len(want.Gossips) {
		return false
	}
	for i, w := range want.Gossips {
		g := got.Gossips[i]
		if g.Depth != w.Depth || g.Rate != w.Rate || g.Round != w.Round ||
			g.Event.ID() != w.Event.ID() || g.Event.Len() != w.Event.Len() {
			return false
		}
		for _, name := range w.Event.Names() {
			if !g.Event.Attr(name).Equal(w.Event.Attr(name)) {
				return false
			}
		}
	}
	if w := want.Update; w != nil {
		g := got.Update
		if g == nil || !g.From.Equal(w.From) || len(g.Records) != len(w.Records) {
			return false
		}
		for i := range w.Records {
			if !recordEqual(g.Records[i], w.Records[i]) {
				return false
			}
		}
	}
	if w := want.Digest; w != nil {
		g := got.Digest
		if g == nil || !g.From.Equal(w.From) || g.Hash != w.Hash || g.Count != w.Count ||
			!slices.Equal(slices.Collect(g.Lines), slices.Collect(w.Lines)) {
			return false
		}
	}
	if w := want.Join; w != nil && (got.Join == nil || got.Join.Hops != w.Hops || !recordEqual(got.Join.Joiner, w.Joiner)) {
		return false
	}
	if w := want.Leave; w != nil && (got.Leave == nil || !got.Leave.Addr.Equal(w.Addr) || got.Leave.Stamp != w.Stamp) {
		return false
	}
	return (got.Heartbeat != nil) == (want.Heartbeat != nil)
}

func recordEqual(got, want membership.Record) bool {
	return got.Addr.Equal(want.Addr) && got.Stamp == want.Stamp &&
		got.Alive == want.Alive && got.Sub.Equal(want.Sub)
}

func TestSendToUnknownAddress(t *testing.T) {
	a, _, _ := pair(t)
	err := a.Send(addr.MustParse("9.9"), wire.Batch{Leave: &membership.Leave{Addr: a.Addr(), Stamp: 1}})
	if !errors.Is(err, transport.ErrUnknownAddr) {
		t.Errorf("err = %v", err)
	}
}

// TestSendRejectsUnframeableMessage: a datagram carries a wire.Batch and
// nothing else — not a foreign value, and not a bare gossip either.
func TestSendRejectsUnframeableMessage(t *testing.T) {
	a, b, _ := pair(t)
	for _, payload := range []any{"not a protocol message", sampleGossip(1)} {
		if err := a.Send(b.Addr(), payload); !errors.Is(err, wire.ErrUnknownKind) {
			t.Errorf("%T payload: err = %v, want ErrUnknownKind", payload, err)
		}
	}
}

func TestOversizeMessageRejected(t *testing.T) {
	res, _ := NewStaticResolver(map[string]string{"0.0": "127.0.0.1:0", "0.1": "127.0.0.1:0"})
	tr, err := New(Config{Resolver: res, MaxDatagram: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	a, err := tr.Attach(addr.MustParse("0.0"))
	if err != nil {
		t.Fatal(err)
	}
	big := membership.Update{From: a.Addr()}
	for i := 0; i < 32; i++ {
		big.Records = append(big.Records, membership.Record{
			Addr: addr.New(0, i), Sub: sampleSub(), Stamp: uint64(i), Alive: true,
		})
	}
	if err := a.Send(addr.MustParse("0.1"), wire.Batch{Update: &big}); err == nil {
		t.Error("oversize datagram accepted")
	}
}

func TestMalformedDatagramsAreCountedAndSkipped(t *testing.T) {
	a, b, tr := pair(t)
	// Straight to the socket, bypassing the framing.
	dst, err := tr.cfg.Resolver.Resolve(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.DialUDP("udp", nil, dst)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte{0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	// The endpoint must survive and keep delivering well-formed traffic.
	if err := a.Send(b.Addr(), wire.Batch{Leave: &membership.Leave{Addr: a.Addr(), Stamp: 3}}); err != nil {
		t.Fatal(err)
	}
	if m := decodeFrame(t, recvOne(t, b)); m.Leave == nil || m.Leave.Stamp != 3 {
		t.Errorf("payload = %+v", m)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().Malformed == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if tr.Stats().Malformed == 0 {
		t.Error("malformed datagram not counted")
	}
}

func TestDuplicateAttach(t *testing.T) {
	_, _, tr := pair(t)
	if _, err := tr.Attach(addr.MustParse("0.0")); !errors.Is(err, transport.ErrDuplicateAddr) {
		t.Errorf("err = %v", err)
	}
}

func TestEndpointClose(t *testing.T) {
	a, b, _ := pair(t)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(a.Addr(), wire.Batch{Leave: &membership.Leave{Addr: b.Addr(), Stamp: 1}}); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("send from closed endpoint = %v", err)
	}
	select {
	case _, ok := <-b.Recv():
		if ok {
			t.Error("unexpected envelope after close")
		}
	case <-time.After(time.Second):
		t.Error("recv channel did not close")
	}
	b.Close() // idempotent
}

func TestTransportCloseShutsEverythingDown(t *testing.T) {
	a, b, tr := pair(t)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), wire.Batch{Leave: &membership.Leave{Addr: a.Addr(), Stamp: 1}}); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("send after transport close = %v", err)
	}
	if _, err := tr.Attach(addr.MustParse("1.0")); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("attach after close = %v", err)
	}
}

func TestResolverValidation(t *testing.T) {
	if _, err := NewStaticResolver(map[string]string{"not an addr": "127.0.0.1:1"}); err == nil {
		t.Error("bad address key accepted")
	}
	if _, err := NewStaticResolver(map[string]string{"0.0": "::bad::"}); err == nil {
		t.Error("bad socket address accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("missing resolver accepted")
	}
}

// TestDeferDecodeDeliversRawFrames exercises the deferred-decode seam: a
// transport configured with DeferDecode hands the consumer transport.Raw
// payloads whose frames decode — with a consumer-owned decoder, the way a
// node holds one — to exactly the message that was sent.
func TestDeferDecodeDeliversRawFrames(t *testing.T) {
	res, err := NewStaticResolver(map[string]string{
		"0.0": "127.0.0.1:0",
		"0.1": "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{Resolver: res, DeferDecode: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	a, err := tr.Attach(addr.MustParse("0.0"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Attach(addr.MustParse("0.1"))
	if err != nil {
		t.Fatal(err)
	}

	want := core.Gossip{Event: sampleEvent(), Depth: 2, Rate: 0.25, Round: 3}
	if err := a.Send(b.Addr(), wire.Batch{Gossips: []core.Gossip{want}}); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, b)
	raw, ok := env.Payload.(transport.Raw)
	if !ok {
		t.Fatalf("payload = %T, want transport.Raw", env.Payload)
	}
	if !env.From.Equal(a.Addr()) {
		t.Errorf("sender prefix parsed as %s, want %s", env.From, a.Addr())
	}
	dec := wire.NewDecoder()
	payload, err := dec.Decode(raw.Frame)
	raw.Release()
	if err != nil {
		t.Fatalf("decoding deferred frame: %v", err)
	}
	if len(payload.Gossips) != 1 {
		t.Fatalf("decoded payload = %+v, want a batch of one gossip", payload)
	}
	got := payload.Gossips[0]
	if got.Depth != want.Depth || got.Rate != want.Rate || got.Round != want.Round ||
		got.Event.ID() != want.Event.ID() {
		t.Errorf("gossip mutated through the raw path: %+v", got)
	}
	if tr.Stats().Malformed != 0 {
		t.Errorf("%d frames counted malformed", tr.Stats().Malformed)
	}
}

// TestSenderTable pins the read loop's sender interning: a known prefix
// parses to the address built at first sight without allocating, malformed
// prefixes are refused, forged prefixes cannot grow the table past its
// bound, and a long prefix parses without being stored.
func TestSenderTable(t *testing.T) {
	var st senderTable
	from := addr.New(2, 3, 1)
	data := append(addr.AppendAddress(nil, from), "frame"...)
	first, n, err := st.parse(data)
	if err != nil || n != len(data)-len("frame") || !first.Equal(from) {
		t.Fatalf("parse = (%v, %d, %v), want (%v, %d, nil)", first, n, err, from, len(data)-len("frame"))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		a, _, _ := st.parse(data)
		if a.Key() != first.Key() {
			t.Fatal("known sender parsed to another address")
		}
	}); allocs != 0 {
		t.Fatalf("parsing a known sender allocates %.1f times, want 0", allocs)
	}
	if _, _, err := st.parse([]byte{0x05, 0x01}); err == nil {
		t.Fatal("truncated prefix accepted")
	}
	for i := 0; i < 3*maxSenders; i++ {
		if _, _, err := st.parse(addr.AppendAddress(nil, addr.New(i))); err != nil {
			t.Fatal(err)
		}
		if len(st.m) > maxSenders {
			t.Fatalf("table holds %d senders, bound is %d", len(st.m), maxSenders)
		}
	}
	st = senderTable{}
	digits := make([]int, maxSenderLen) // one count byte plus 16 one-byte digits
	for i := 0; i < maxSenders; i++ {
		digits[0] = i % 64
		digits[1] = i / 64
		long := addr.New(digits...)
		data := addr.AppendAddress(nil, long)
		a, n, err := st.parse(data)
		if err != nil || n != len(data) || !a.Equal(long) {
			t.Fatalf("long prefix parsed to (%v, %d, %v), want (%v, %d, nil)", a, n, err, long, len(data))
		}
	}
	if len(st.m) != 0 {
		t.Fatalf("table holds %d prefixes longer than %d bytes, want none", len(st.m), maxSenderLen)
	}
}

// TestUDPRecvViewIsTheInbox pins Endpoint.Recv on the UDP fabric: frames
// queued before the first call come out first, in order; the bound still
// holds, with the overflow counted as dropped; len is the inbox depth; and
// closing the endpoint closes the channel once it is drained.
func TestUDPRecvViewIsTheInbox(t *testing.T) {
	const bound = 12
	a, b, tr := batchedPair(t, func(c *Config) { c.QueueLen = bound })
	// arrived waits until n frames were queued or dropped.
	arrived := func(n int64, depth func() int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); int64(depth())+tr.Stats().Dropped < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d datagrams arrived", int64(depth())+tr.Stats().Dropped, n)
			}
		}
	}
	for i := 0; i < 10; i++ {
		if err := a.Send(b.Addr(), oneGossip(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The read loop counts a datagram just before it queues it.
	for deadline := time.Now().Add(5 * time.Second); tr.Stats().RecvDatagrams < 10; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 10 datagrams arrived", tr.Stats().RecvDatagrams)
		}
	}
	time.Sleep(10 * time.Millisecond)
	view := b.Recv()
	arrived(10, func() int { return len(view) })
	if len(view) != 10 || cap(view) != bound {
		t.Fatalf("the view of 10 queued frames has len %d, cap %d", len(view), cap(view))
	}
	for i := 10; i < 15; i++ {
		if err := a.Send(b.Addr(), oneGossip(i)); err != nil {
			t.Fatal(err)
		}
	}
	arrived(15, func() int { return len(view) })
	if st := tr.Stats(); len(view) != bound || st.Dropped != 15-bound {
		t.Fatalf("after 15 frames at bound %d: depth %d, %d dropped", bound, len(view), st.Dropped)
	}
	for i := 0; i < bound; i++ {
		env := <-view
		seq, _ := decodeFrame(t, env).Gossips[0].Event.Attr("seq").AsInt()
		if seq != int64(i) {
			t.Fatalf("frame %d came out of the view as %d", i, seq)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-view:
		if ok {
			t.Fatal("a frame came out of a closed, drained endpoint's view")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the view of a closed endpoint never closed")
	}
}
