package core

import (
	"math/rand"
	"reflect"
	"testing"

	"pmcast/internal/addr"
	"pmcast/internal/event"
	"pmcast/internal/interest"
	"pmcast/internal/tree"
)

// roundTree builds a fully populated 4^2 tree whose interests follow the
// subgroup structure enough for every rule of the round to fire: members with
// an even last digit want their own top-level subtree's class (b = first
// digit), the odd ones the class everybody shares (b = 9).
func roundTree(tb testing.TB) (*tree.Tree, addr.Space) {
	tb.Helper()
	space := addr.MustRegular(4, 2)
	members := make([]tree.Member, space.Capacity())
	for i := range members {
		a := space.AddressAt(i)
		class := int64(9)
		if a.Digit(2)%2 == 0 {
			class = int64(a.Digit(1))
		}
		members[i] = tree.Member{Addr: a, Sub: interest.NewSubscription().Where("b", interest.EqInt(class))}
	}
	tr, err := tree.Build(tree.Config{Space: space, R: 2}, members)
	if err != nil {
		tb.Fatal(err)
	}
	return tr, space
}

func originEvent(class int64, origin string, seq uint64) event.Event {
	return event.NewBuilder().Int("b", class).Build(event.ID{Origin: origin, Seq: seq})
}

// sameCounters compares everything a process counts but the wall time it
// spent matching.
func sameCounters(t *testing.T, who string, got, want *Process) {
	t.Helper()
	gs, gr := got.Stats()
	ws, wr := want.Stats()
	if gs != ws || gr != wr {
		t.Errorf("%s: sent/received %d/%d, reference %d/%d", who, gs, gr, ws, wr)
	}
	gm, wm := got.MatchStats(), want.MatchStats()
	gm.Nanos, wm.Nanos = 0, 0
	if gm != wm {
		t.Errorf("%s: match stats %+v, reference %+v", who, gm, wm)
	}
}

// TestTickRoundMatchesTick is the batching contract at the protocol layer and
// the equivalence of the round built in place with the round it replaced.
// Three fleets over one tree publish and receive the same events: one takes
// TickRound, one takes Tick, one is the reference (reference_test.go). Every
// round of every process must emit the reference's round envelopes — same
// destinations in first-appearance order, same gossips in emission order —
// which are also Tick's flat sends regrouped; the three RNGs must have
// consumed the same draws; and the counters must agree at the end. The table
// switches on each rule that decides who is walked, dropped or drawn.
func TestTickRoundMatchesTick(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		rebuild bool // move a view under the fleet mid-run
	}{
		{name: "plain", cfg: Config{F: 3, C: 3}},
		{name: "local descent", cfg: Config{F: 3, C: 2, LocalDescent: true}},
		{name: "threshold", cfg: Config{F: 2, C: 2, Threshold: 3}},
		{name: "leaf flood", cfg: Config{F: 3, C: 2, LeafFloodRate: 0.4}},
		{name: "rebuild over a moved view", cfg: Config{F: 3, C: 3, LocalDescent: true}, rebuild: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, space := roundTree(t)
			n := space.Capacity()
			build := func(i int, old *Process) *Process {
				p, err := RebuildProcess(tr, space.AddressAt(i), tc.cfg, old)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			grouped, flat, ref := make([]*Process, n), make([]*Process, n), make([]*refProcess, n)
			for i := 0; i < n; i++ {
				grouped[i], flat[i], ref[i] = build(i, nil), build(i, nil), newRefProcess(build(i, nil))
			}
			// Several publishers, sequence numbers out of order: buffers fill
			// in the middle, not only at the end.
			publish := func(i int, ev event.Event) {
				if err := grouped[i].Multicast(ev); err != nil {
					t.Fatal(err)
				}
				if err := flat[i].Multicast(ev); err != nil {
					t.Fatal(err)
				}
				ref[i].Multicast(ev)
			}
			for k, seq := range []uint64{5, 3, 9, 1, 7, 2} {
				pub := (k * 5) % n
				publish(pub, originEvent(int64(space.AddressAt(pub).Digit(1)), "p", seq))
				publish((pub+6)%n, originEvent(9, []string{"q", "a"}[k%2], seq))
			}
			rngG, rngF, rngR := rand.New(rand.NewSource(99)), rand.New(rand.NewSource(99)), rand.New(rand.NewSource(99))
			for round := 0; round < 24; round++ {
				if tc.rebuild && round == 3 {
					// 3.2 starts wanting class 0: subtree 3's summary moves, and
					// with it every process's depth-1 view; subtree 3's members
					// also get a new leaf view.
					if err := tr.UpdateSubscription(space.AddressAt(n-2), interest.NewSubscription().Where("b", interest.EqInt(0))); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < n; i++ {
						grouped[i], flat[i], ref[i].Process = build(i, grouped[i]), build(i, flat[i]), build(i, ref[i].Process)
					}
				}
				for i := 0; i < n; i++ {
					got, sends, want := grouped[i].TickRound(rngG), flat[i].Tick(rngF), ref[i].TickRound(rngR)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d node %s: round envelopes\n%+v\nreference\n%+v", round, space.AddressAt(i), got, want)
					}
					if !reflect.DeepEqual(regroup(sends), want) {
						t.Fatalf("round %d node %s: Tick's sends regroup to\n%+v\nreference\n%+v", round, space.AddressAt(i), regroup(sends), want)
					}
					for _, rs := range want {
						to := space.Index(rs.To)
						for _, g := range rs.Gossips {
							grouped[to].Receive(g)
							flat[to].Receive(g)
							ref[to].Receive(g)
						}
					}
				}
				if g, f, r := rngG.Int63(), rngF.Int63(), rngR.Int63(); g != r || f != r {
					t.Fatalf("round %d: the RNGs parted", round)
				}
			}
			sent := 0
			for i := 0; i < n; i++ {
				who := space.AddressAt(i).String()
				sameCounters(t, who, grouped[i], ref[i].Process)
				sameCounters(t, who+" (Tick)", flat[i], ref[i].Process)
				if grouped[i].Pending() != ref[i].Pending() || len(grouped[i].Deliveries()) != len(ref[i].Deliveries()) {
					t.Errorf("%s: buffered events or deliveries differ from the reference", who)
				}
				s, _ := grouped[i].Stats()
				sent += s
			}
			if sent == 0 {
				t.Fatal("the case exercised nothing: no sends")
			}
		})
	}
}

// TestRoundAgainstReferenceNilView: a depth without a view forwards its
// events down in the round that finds them, and the depth below gossips them
// in that same round.
func TestRoundAgainstReferenceNilView(t *testing.T) {
	mk := func() *Process {
		leaf := &mutableView{size: 6, gen: 1, on: true}
		p, err := NewProcess(addr.New(0, 0), Config{D: 2, F: 2, C: 1}, []DepthView{nil, leaf}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p, r := mk(), newRefProcess(mk())
	for seq := uint64(1); seq <= 3; seq++ {
		if err := p.Multicast(classEv(0, seq)); err != nil {
			t.Fatal(err)
		}
		r.Multicast(classEv(0, seq))
	}
	rngP, rngR := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	for round := 0; p.Pending() > 0 || r.Pending() > 0; round++ {
		if round > 64 {
			t.Fatal("no quiescence")
		}
		got, want := p.TickRound(rngP), r.TickRound(rngR)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: %+v, reference %+v", round, got, want)
		}
		if round == 0 && len(got) == 0 {
			t.Fatal("events handed down from the viewless depth were not gossiped in the same round")
		}
	}
	sameCounters(t, "0.0", p, r.Process)
}

// TestRoundScratchHoldsNothing: what a round leaves behind in the process is
// capacity only — no pick, no buffer slot and no grouping key still refers to
// an event — and the envelopes it returns share one backing array without
// being able to grow into each other.
func TestRoundScratchHoldsNothing(t *testing.T) {
	tr, space := roundTree(t)
	p, err := BuildProcess(tr, space.AddressAt(0), Config{F: 3, C: 1, LeafFloodRate: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 8; seq++ {
		if err := p.Multicast(originEvent(9, "s", seq)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	emitted := false
	for round := 0; p.Pending() > 0; round++ {
		if round > 64 {
			t.Fatal("no quiescence")
		}
		rounds := p.TickRound(rng)
		for i := range rounds {
			if len(rounds[i].Gossips) != cap(rounds[i].Gossips) {
				t.Fatalf("envelope %d has room for %d gossips behind its %d: an append would overwrite its neighbour's", i, cap(rounds[i].Gossips), len(rounds[i].Gossips))
			}
		}
		if len(rounds) >= 2 {
			emitted = true
			next := rounds[1].Gossips[0]
			rounds[0].Gossips = append(rounds[0].Gossips, Gossip{Depth: 99})
			if !reflect.DeepEqual(rounds[1].Gossips[0], next) {
				t.Fatal("appending to one envelope overwrote the next one's first gossip")
			}
		}
		for i, s := range p.picks[:cap(p.picks)] {
			if !reflect.DeepEqual(s, Send{}) {
				t.Fatalf("round %d: pick %d still holds %v", round, i, s.Gossip.Event.ID())
			}
		}
		if len(p.slot) != 0 {
			t.Fatalf("round %d: %d destination keys left in the grouping table", round, len(p.slot))
		}
		for d, buf := range p.gossips {
			for i, e := range buf[len(buf):cap(buf)] {
				if !reflect.DeepEqual(e, entry{}) {
					t.Fatalf("round %d: depth %d slot %d behind the buffer still holds %v", round, d+1, len(buf)+i, e.ev.ID())
				}
			}
		}
	}
	if !emitted {
		t.Fatal("no round sent to two destinations")
	}
	// Reset returns to the same rest state, whatever was buffered.
	for seq := uint64(1); seq <= 4; seq++ {
		p.Receive(Gossip{Event: originEvent(9, "r", seq), Depth: 1, Rate: 1})
	}
	p.Reset()
	if p.Pending() != 0 || p.HasSeen(event.ID{Origin: "r", Seq: 1}) {
		t.Fatal("Reset left protocol state")
	}
	for d, buf := range p.gossips {
		for _, e := range buf[:cap(buf)] {
			if !reflect.DeepEqual(e, entry{}) {
				t.Fatalf("Reset left %v in depth %d's buffer", e.ev.ID(), d+1)
			}
		}
	}
}

// TestRoundAllocations is the round loop's allocation contract: an idle round
// allocates nothing, and a round that sends — every buffered event's profile
// already in its entry — allocates the two things the egress side keeps, the
// envelopes and the one array behind their gossips, whatever the number of
// destinations.
func TestRoundAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tr, space := roundTree(t)
	// C far above the rounds ticked here: no budget runs out, so no event is
	// handed down and profiled against the next depth mid-measurement.
	p, err := BuildProcess(tr, space.AddressAt(0), Config{F: 3, C: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if idle := testing.AllocsPerRun(10, func() { p.TickRound(rng) }); idle != 0 {
		t.Errorf("an idle round allocates %.0f times, want 0", idle)
	}
	for seq := uint64(1); seq <= 16; seq++ {
		p.Receive(Gossip{Event: originEvent(9, "w", seq), Depth: 1 + int(seq%2), Rate: 0.5})
	}
	dests := 0
	for i := 0; i < 8; i++ { // profiles computed, scratch grown to the round's size
		dests = max(dests, len(p.TickRound(rng)))
	}
	if dests < 3 {
		t.Fatalf("warm rounds reach %d destinations; the contract is about several", dests)
	}
	if warm := testing.AllocsPerRun(20, func() { p.TickRound(rng) }); warm > 2 {
		t.Errorf("a warm round allocates %.0f times, want at most 2 (the envelopes and their gossips' array)", warm)
	}
}

// FuzzRoundAgainstReference drives one process and the reference through the
// same byte-chosen sequence of publishes, receptions, rounds and rebuilds over
// moved views, under a byte-chosen configuration, and demands the same
// envelopes from every round, the same RNG afterwards and the same counters.
// The reference keeps its seen-set as a plain map, so the per-origin windows
// answer every ID the operations can name as the map does. The first byte
// picks the rules in force, the second the process; then each pair of bytes
// is one operation and its argument.
func FuzzRoundAgainstReference(f *testing.F) {
	f.Add([]byte{0x00, 0, 0, 1, 0, 2, 2, 0, 2, 1, 2, 0})
	f.Add([]byte{0x10, 5, 0, 9, 0, 3, 1, 0x21, 2, 0, 3, 7, 2, 1, 2, 0, 2, 0})
	f.Add([]byte{0xe3, 2, 1, 0x12, 1, 0x07, 0, 4, 2, 0, 3, 2, 3, 2, 2, 1, 0, 6, 2, 0, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		tr, space := roundTree(t)
		rules := data[0]
		cfg := Config{F: 1 + int(rules&3), C: float64(rules >> 2 & 3), LocalDescent: rules&0x10 != 0}
		if rules&0x20 != 0 {
			cfg.Threshold = 3
		}
		if rules&0x40 != 0 {
			cfg.LeafFloodRate = 0.4
		}
		self := space.AddressAt(int(data[1]) % space.Capacity())
		build := func(old *Process) *Process {
			p, err := RebuildProcess(tr, self, cfg, old)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		p, r := build(nil), newRefProcess(build(nil))
		rngP, rngR := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
		moved := int64(100) // every rebuild's subscription is new, so no view generation returns
		for ops := data[2:]; len(ops) >= 2; ops = ops[2:] {
			arg := int(ops[1])
			// A few origins and sequence numbers: duplicates and out-of-order
			// IDs are the common case.
			ev := originEvent([]int64{0, 1, 9, int64(self.Digit(1))}[arg&3], []string{"a", "b", "c"}[arg>>2%3], uint64(arg>>4))
			switch ops[0] % 4 {
			case 0:
				if ev.ID().IsZero() {
					continue
				}
				if err := p.Multicast(ev); err != nil {
					t.Fatal(err)
				}
				r.Multicast(ev)
			case 1:
				g := Gossip{Event: ev, Depth: arg % 4, Rate: float64(arg%5) / 4, Round: arg >> 5}
				p.Receive(g)
				r.Receive(g)
			case 2:
				got, want := p.TickRound, r.TickRound
				if arg&1 != 0 {
					got = func(rng *rand.Rand) []RoundSend { return regroup(p.Tick(rng)) }
				}
				if g, w := got(rngP), want(rngR); !reflect.DeepEqual(g, w) {
					t.Fatalf("round envelopes\n%+v\nreference\n%+v", g, w)
				}
			case 3:
				moved++
				if err := tr.UpdateSubscription(space.AddressAt(arg%space.Capacity()), interest.NewSubscription().Where("b", interest.EqInt(moved))); err != nil {
					t.Fatal(err)
				}
				p, r.Process = build(p), build(r.Process)
			}
		}
		if rngP.Int63() != rngR.Int63() {
			t.Fatal("the RNGs parted")
		}
		sameCounters(t, self.String(), p, r.Process)
		if p.Pending() != r.Pending() || !reflect.DeepEqual(p.Deliveries(), r.Deliveries()) {
			t.Fatal("buffered events or deliveries differ from the reference")
		}
		for _, origin := range []string{"a", "b", "c"} {
			for seq := uint64(0); seq < 16; seq++ {
				if id := (event.ID{Origin: origin, Seq: seq}); p.HasSeen(id) != r.HasSeen(id) {
					t.Fatalf("HasSeen(%v) = %v, reference %v", id, p.HasSeen(id), r.HasSeen(id))
				}
			}
		}
	})
}
