package transport

import (
	"fmt"
	"testing"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/core"
	"pmcast/internal/event"
	"pmcast/internal/fec"
	"pmcast/internal/membership"
	"pmcast/internal/wire"
)

func testBatch(events int) wire.Batch {
	b := wire.Batch{
		Digest:    &membership.Digest{From: addr.New(1), Hash: 7},
		Heartbeat: &membership.Heartbeat{},
	}
	for i := 0; i < events; i++ {
		b.Gossips = append(b.Gossips, core.Gossip{
			Event: event.NewBuilder().Int("b", int64(i)).
				Build(event.ID{Origin: "1", Seq: uint64(i + 1)}),
			Depth: 1,
		})
	}
	return b
}

// TestBatchLandsWhole pins the fabric's model of a round envelope: one Send
// is one envelope on the inbox — the sender's batch, its parts in canonical
// order — and a bare payload, a round envelope of one part, arrives bare.
func TestBatchLandsWhole(t *testing.T) {
	net := MustNetwork(Config{})
	defer net.Close()
	a, _ := net.Attach(addr.New(1))
	b, _ := net.Attach(addr.New(2))
	sent := testBatch(3)
	if err := a.Send(b.Addr(), sent); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), sent.Gossips[0]); err != nil {
		t.Fatal(err)
	}
	if got := len(b.Recv()); got != 2 {
		t.Fatalf("%d envelopes queued for two sends", got)
	}
	env := <-b.Recv()
	if !env.From.Equal(a.Addr()) || !env.To.Equal(b.Addr()) {
		t.Errorf("envelope from %s to %s", env.From, env.To)
	}
	got, ok := env.Payload.(wire.Batch)
	if !ok {
		t.Fatalf("a batch landed as %T", env.Payload)
	}
	if want := "[g1 g2 g3 d7 h7]"; fmt.Sprint(partTags(got)) != want {
		t.Errorf("landed parts %v, want %s", partTags(got), want)
	}
	if &got.Gossips[0] != &sent.Gossips[0] {
		t.Error("a fault-free hand-off copied the gossip section")
	}
	if _, bare := (<-b.Recv()).Payload.(core.Gossip); !bare {
		t.Error("a bare gossip did not arrive bare")
	}
}

// TestBatchDropAccountingParity demands one drop per sub-message on every
// path an envelope can be lost on — partition, loss, unknown destination,
// inbox overflow and a destination detached under a delayed envelope — so a
// drop count means the same whatever the envelopes were.
func TestBatchDropAccountingParity(t *testing.T) {
	net := MustNetwork(Config{QueueLen: 1})
	defer net.Close()
	a, _ := net.Attach(addr.New(1))
	b, _ := net.Attach(addr.New(2))

	net.Block(a.Addr(), b.Addr())
	if err := a.Send(b.Addr(), testBatch(3)); err != nil {
		t.Fatal(err)
	}
	if got := net.Dropped(); got != 5 {
		t.Errorf("partition dropped %d, want 5 (one per sub-message)", got)
	}

	net.Heal()
	net.SetLoss(1)
	if err := a.Send(b.Addr(), testBatch(2)); err != nil {
		t.Fatal(err)
	}
	if got := net.Dropped(); got != 5+4 {
		t.Errorf("after full loss dropped %d, want 9", got)
	}

	net.SetLoss(0)
	if err := a.Send(addr.New(9), testBatch(1)); err == nil {
		t.Error("unknown destination accepted")
	}
	if got := net.Dropped(); got != 9+3 {
		t.Errorf("after unknown dest dropped %d, want 12", got)
	}

	// The inbox holds one envelope: the second of two is the overflow.
	for i := 0; i < 2; i++ {
		if err := a.Send(b.Addr(), testBatch(1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := net.Dropped(); got != 12+3 {
		t.Errorf("after inbox overflow dropped %d, want 15", got)
	}

	vc, delayed, c, d := virtualPair(t, Config{MinDelay: time.Millisecond, MaxDelay: time.Millisecond})
	if err := c.Send(d.Addr(), testBatch(1)); err != nil {
		t.Fatal(err)
	}
	delayed.Detach(d.Addr())
	vc.Advance(time.Millisecond)
	if got := delayed.Dropped(); got != 3 {
		t.Errorf("an envelope in flight to a detached destination dropped %d, want 3", got)
	}

	// A join request and a leave are a part each, on every path.
	joinLeave := testBatch(1)
	joinLeave.Join = &membership.JoinRequest{Hops: 1}
	joinLeave.Leave = &membership.Leave{Stamp: 1}
	net.Block(a.Addr(), b.Addr())
	_ = a.Send(b.Addr(), joinLeave)
	net.Heal()
	net.SetLoss(1)
	_ = a.Send(b.Addr(), joinLeave)
	net.SetLoss(0)
	_ = a.Send(addr.New(9), joinLeave)
	if got := net.Dropped(); got != 15+3*5 {
		t.Errorf("join and leave batches dropped %d, want %d (five parts, three times)", got, 15+3*5)
	}
}

// TestHandOffAllocations is the hand-off's allocation contract: an envelope
// that crosses whole — on a fault-free fabric, or on a lossy link that loses
// none of it — is the sender's own value and route allocates nothing; losing
// one gossip of sixteen costs the survivors' slice and the box around the
// filtered batch.
func TestHandOffAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var payload any = wire.Batch{Gossips: testBatch(16).Gossips} // boxed by the sender, once
	pair := func(cfg Config) (*Network, func()) {
		net := MustNetwork(cfg)
		t.Cleanup(func() { net.Close() })
		a, _ := net.Attach(addr.New(1))
		b, _ := net.Attach(addr.New(2))
		return net, func() {
			_ = a.Send(b.Addr(), payload) // both ends are attached
			select {
			case <-b.Recv():
			default:
			}
		}
	}
	_, send := pair(Config{})
	if got := testing.AllocsPerRun(100, send); got != 0 {
		t.Errorf("a fault-free hand-off allocates %.0f times, want 0", got)
	}

	// A link's fates depend on the seed and its own traffic alone, so a first
	// pass tells how many gossips each send of the measured pass will lose.
	const sends = 128
	lossy := Config{Loss: 0.02, Seed: 3}
	net, send := pair(lossy)
	lost := make([]int, sends)
	for i := range lost {
		before := net.Dropped()
		send()
		lost[i] = net.Dropped() - before
	}
	_, send = pair(lossy)
	seen := map[int]int{}
	for i := 1; i < sends; i += 2 {
		got := testing.AllocsPerRun(1, send) // send i-1 is the warm-up run, send i the measured one
		want, pinned := map[int]float64{0: 0, 1: 2}[lost[i]]
		if pinned && got != want {
			t.Errorf("send %d lost %d gossips and allocated %.0f times, want %.0f", i, lost[i], got, want)
		}
		seen[lost[i]]++
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("measured sends lost %v gossips: both none and one must occur", seen)
	}
}

// fatesAtParent is what everyKnob's fabric did with codedSequence at the
// commit before a round envelope crossed whole, when every sub-message landed
// as its own envelope: the draws — which stream, in what order, one delay per
// envelope from the stream of what survived, the FIFO floor — must not move.
var fatesAtParent = []sendFate{
	{0b100101010, 3169587},
	{0b10, 8599638},
	{0b0, 14673067},
	{0b0, 16120689},
	{0b0, 24306186},
	{0b1110, 24306186},
	{0b0, 28347331},
	{0b1, -1},
	{0b0, 39512729},
	{0b0, 43242808},
	{0b100, 46993560},
	{0b110, 49386054},
	{0b0, 51652911},
	{0b0, 61421684},
	{0b0, 63790293},
	{0b1001, 65947144},
	{0b1, 72242433},
	{0b0, 77711298},
	{0b0, 77711298},
	{0b10, 86149185},
	// Recorded when join requests and leaves became batch sections; the rows
	// above did not move.
	{0b0, 86149185},
	{0b111, -1},
	{0b111, -1},
	{0b0, 96642310},
	{0b110, 98468920},
	{0b111, -1},
	{0b0, 113514909},
	{0b10, 113879635},
}

// TestSeededFatesAndLandings pins the fabric's draw order inside this
// package, not only through the harness goldens: for a fixed seed, ambient
// loss and a Gilbert–Elliott link with delay and jitter, which parts of a
// fixed sequence of coded batches are lost and when the survivors land.
func TestSeededFatesAndLandings(t *testing.T) {
	got := runCodedSequence(t, everyKnob)
	if len(got) != len(fatesAtParent) {
		t.Fatalf("%d sends, %d recorded", len(got), len(fatesAtParent))
	}
	for i, want := range fatesAtParent {
		if got[i] != want {
			t.Errorf("send %d: lost %#b, landed at %d; at the parent commit lost %#b, landed at %d",
				i, got[i].lost, got[i].at, want.lost, want.at)
		}
	}
}

// codedSequence is a fixed run of round envelopes of every shape a node
// sends — coded with a full membership tail, repair-only, a bare gossip,
// plain, beacons only, then a gossip with a join request and a leave — each
// sub-message tagged with its send.
func codedSequence() []any {
	gossip := func(send, i int) core.Gossip {
		return core.Gossip{Event: event.NewBuilder().Int("b", 1).
			Build(event.ID{Origin: "0", Seq: uint64(send*10 + i)}), Depth: 1}
	}
	gen := func(send, i, symbols int) fec.Generation {
		g := fec.Generation{Gen: uint64(send*10 + i), K: 4, R: 2}
		for s := 0; s < symbols; s++ {
			g.Repairs = append(g.Repairs, fec.RepairSymbol{Index: s})
		}
		return g
	}
	var seq []any
	for send := 0; send < 20; send++ {
		tail := wire.Batch{
			Update:    &membership.Update{Records: []membership.Record{{Stamp: uint64(send)}}},
			Digest:    &membership.Digest{Hash: uint64(send)},
			Heartbeat: &membership.Heartbeat{},
		}
		switch send % 5 {
		case 0:
			b := tail
			b.Gossips = []core.Gossip{gossip(send, 0), gossip(send, 1), gossip(send, 2), gossip(send, 3)}
			b.FEC = []fec.Generation{gen(send, 0, 2)}
			seq = append(seq, b)
		case 1:
			seq = append(seq, wire.Batch{FEC: []fec.Generation{gen(send, 0, 2), gen(send, 1, 1)}})
		case 2:
			seq = append(seq, gossip(send, 0))
		case 3:
			seq = append(seq, wire.Batch{Gossips: []core.Gossip{gossip(send, 0), gossip(send, 1), gossip(send, 2)}})
		case 4:
			seq = append(seq, wire.Batch{Digest: tail.Digest, Heartbeat: tail.Heartbeat})
		}
	}
	// A join request and a leave ride last, one fate each.
	for send := 20; send < 28; send++ {
		seq = append(seq, wire.Batch{
			Gossips: []core.Gossip{gossip(send, 0)},
			Join:    &membership.JoinRequest{Joiner: membership.Record{Stamp: uint64(send)}},
			Leave:   &membership.Leave{Stamp: uint64(send)},
		})
	}
	return seq
}

// partTags names the sub-messages of a payload in canonical order. A
// heartbeat carries nothing to name it by, so it is named after the digest
// it rides with — every heartbeat sent here rides with one.
func partTags(payload any) []string {
	b, ok := payload.(wire.Batch)
	if !ok {
		b = wire.Batch{Gossips: []core.Gossip{payload.(core.Gossip)}}
	}
	var tags []string
	for _, g := range b.Gossips {
		tags = append(tags, fmt.Sprintf("g%d", g.Event.ID().Seq))
	}
	for _, gen := range b.FEC {
		for _, rs := range gen.Repairs {
			tags = append(tags, fmt.Sprintf("r%d.%d", gen.Gen, rs.Index))
		}
	}
	if b.Update != nil {
		tags = append(tags, fmt.Sprintf("u%d", b.Update.Records[0].Stamp))
	}
	digest := "?" // lost in transit
	if b.Digest != nil {
		digest = fmt.Sprint(b.Digest.Hash)
		tags = append(tags, "d"+digest)
	}
	if b.Heartbeat != nil {
		tags = append(tags, "h"+digest)
	}
	if b.Join != nil {
		tags = append(tags, fmt.Sprintf("j%d", b.Join.Joiner.Stamp))
	}
	if b.Leave != nil {
		tags = append(tags, fmt.Sprintf("l%d", b.Leave.Stamp))
	}
	return tags
}

// sendFate is what the fabric did with one send: which of its sub-messages
// it lost (bit i is the i-th of the canonical order) and how long after the
// start of the run the survivors landed (-1 when there were none).
type sendFate struct {
	lost uint16
	at   time.Duration
}

// runCodedSequence sends codedSequence a → b, one envelope every 4 ms, over
// cfg on a virtual clock and reports each send's fate.
func runCodedSequence(t *testing.T, cfg Config) []sendFate {
	t.Helper()
	vc, _, a, b := virtualPair(t, cfg)
	start := vc.Now()
	landed := make(map[string]time.Duration)
	land := func(until time.Time) {
		for {
			next, ok := vc.NextAt()
			if !ok || next.After(until) {
				break
			}
			now, _ := vc.RunNext()
			for len(b.Recv()) > 0 {
				for _, tag := range partTags((<-b.Recv()).Payload) {
					landed[tag] = now.Sub(start)
				}
			}
		}
		vc.AdvanceTo(until)
	}
	seq := codedSequence()
	for i, payload := range seq {
		if err := a.Send(b.Addr(), payload); err != nil {
			t.Fatal(err)
		}
		land(start.Add(time.Duration(i+1) * 4 * time.Millisecond))
	}
	land(start.Add(time.Second))
	fates := make([]sendFate, len(seq))
	for i, payload := range seq {
		fates[i].at = -1
		for j, tag := range partTags(payload) {
			at, ok := landed[tag]
			switch {
			case !ok:
				fates[i].lost |= 1 << j
			case fates[i].at >= 0 && fates[i].at != at:
				t.Fatalf("send %d landed at %v and %v", i, fates[i].at, at)
			default:
				fates[i].at = at
			}
		}
	}
	return fates
}
