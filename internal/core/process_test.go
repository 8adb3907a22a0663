package core

import (
	"math/rand"
	"testing"

	"pmcast/internal/addr"
	"pmcast/internal/event"
	"pmcast/internal/interest"
	"pmcast/internal/tree"
)

// buildGroup assembles a fully populated regular tree where members with an
// even last digit subscribe to b=1 and the rest to b=2, plus a Process per
// member.
func buildGroup(t *testing.T, a, d, r int, cfg Config) (*tree.Tree, map[string]*Process) {
	t.Helper()
	space := addr.MustRegular(a, d)
	members := make([]tree.Member, 0, space.Capacity())
	for i := 0; i < space.Capacity(); i++ {
		ad := space.AddressAt(i)
		val := int64(2)
		if ad.Digit(d)%2 == 0 {
			val = 1
		}
		members = append(members, tree.Member{
			Addr: ad,
			Sub:  interest.NewSubscription().Where("b", interest.EqInt(val)),
		})
	}
	tr, err := tree.Build(tree.Config{Space: space, R: r}, members)
	if err != nil {
		t.Fatal(err)
	}
	procs := make(map[string]*Process, len(members))
	for _, m := range members {
		p, err := BuildProcess(tr, m.Addr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		procs[m.Addr.Key()] = p
	}
	return tr, procs
}

// drive runs the whole group round-synchronously until no process has
// pending gossip, returning the number of rounds executed.
func drive(t *testing.T, procs map[string]*Process, rng *rand.Rand, maxRounds int) int {
	t.Helper()
	for round := 1; round <= maxRounds; round++ {
		var sends []Send
		for _, p := range procs {
			sends = append(sends, p.Tick(rng)...)
		}
		for _, s := range sends {
			dst, ok := procs[s.To.Key()]
			if !ok {
				t.Fatalf("send to unknown process %s", s.To)
			}
			dst.Receive(s.Gossip)
		}
		pending := 0
		for _, p := range procs {
			pending += p.Pending()
		}
		if pending == 0 {
			return round
		}
	}
	t.Fatalf("dissemination did not quiesce in %d rounds", maxRounds)
	return 0
}

func bEvent(val int64, seq uint64) event.Event {
	return event.NewBuilder().Int("b", val).Build(event.ID{Origin: "test", Seq: seq})
}

func TestConfigValidation(t *testing.T) {
	space := addr.MustRegular(2, 2)
	tr, err := tree.Build(tree.Config{Space: space, R: 1}, []tree.Member{{Addr: addr.New(0, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildProcess(tr, addr.New(0, 0), Config{F: 0}); err == nil {
		t.Error("F=0 accepted")
	}
	if _, err := BuildProcess(tr, addr.New(1, 1), Config{F: 2}); err == nil {
		t.Error("non-member accepted")
	}
	if _, err := NewProcess(addr.New(0, 0), Config{D: 2, F: 2}, []DepthView{nil}, nil); err == nil {
		t.Error("view count mismatch accepted")
	}
}

func TestMulticastStartsAtRoot(t *testing.T) {
	_, procs := buildGroup(t, 3, 2, 2, Config{F: 2})
	pub := procs["1.1"]
	ev := bEvent(1, 1)
	if err := pub.Multicast(ev); err != nil {
		t.Fatal(err)
	}
	if pub.Pending() != 1 {
		t.Fatalf("pending = %d", pub.Pending())
	}
	// Zero-ID event rejected.
	if err := pub.Multicast(event.NewBuilder().Int("b", 1).Build(event.ID{})); err == nil {
		t.Error("zero-ID event accepted")
	}
	// Duplicate multicast is a no-op.
	if err := pub.Multicast(ev); err != nil {
		t.Fatal(err)
	}
	if pub.Pending() != 1 {
		t.Error("duplicate multicast duplicated state")
	}
}

func TestFullDisseminationReachesInterested(t *testing.T) {
	_, procs := buildGroup(t, 4, 2, 2, Config{F: 3, C: 2})
	rng := rand.New(rand.NewSource(7))
	ev := bEvent(1, 1) // interests of even-last-digit members

	if err := procs["2.3"].Multicast(ev); err != nil {
		t.Fatal(err)
	}
	drive(t, procs, rng, 200)

	delivered, interested, uninterestedGot := 0, 0, 0
	for key, p := range procs {
		evs := p.Deliveries()
		a := addr.MustParse(key)
		wantInterested := a.Digit(2)%2 == 0
		if wantInterested {
			interested++
			if len(evs) == 1 {
				delivered++
			}
		} else if len(evs) > 0 {
			uninterestedGot++
		}
	}
	if interested == 0 {
		t.Fatal("test setup broken: nobody interested")
	}
	// With fanout 3, a conservative constant and a 16-process group, every
	// interested process should be reached.
	if delivered < interested {
		t.Errorf("delivered %d of %d interested", delivered, interested)
	}
	if uninterestedGot != 0 {
		t.Errorf("%d uninterested processes delivered", uninterestedGot)
	}
}

func TestUninterestedLeavesNeverReceive(t *testing.T) {
	// With per-leaf interests mapped to subgroup structure: members of
	// subtree 0 interested, others not. Uninterested *leaves* must not
	// receive (delegates of interested subtrees may).
	space := addr.MustRegular(3, 2)
	members := make([]tree.Member, 0, 9)
	for i := 0; i < space.Capacity(); i++ {
		ad := space.AddressAt(i)
		sub := interest.NewSubscription().Where("b", interest.EqInt(99)) // never matches
		if ad.Digit(1) == 0 {
			sub = interest.NewSubscription().Where("b", interest.EqInt(1))
		}
		members = append(members, tree.Member{Addr: ad, Sub: sub})
	}
	tr, err := tree.Build(tree.Config{Space: space, R: 1}, members)
	if err != nil {
		t.Fatal(err)
	}
	procs := make(map[string]*Process)
	for _, m := range members {
		p, err := BuildProcess(tr, m.Addr, Config{F: 2, C: 2})
		if err != nil {
			t.Fatal(err)
		}
		procs[m.Addr.Key()] = p
	}
	rng := rand.New(rand.NewSource(3))
	ev := bEvent(1, 1)
	if err := procs["0.0"].Multicast(ev); err != nil {
		t.Fatal(err)
	}
	drive(t, procs, rng, 200)

	for key, p := range procs {
		a := addr.MustParse(key)
		saw := p.HasSeen(ev.ID())
		if a.Digit(1) != 0 {
			// Other subtrees: only their delegates (digit2==0 with R=1,
			// smallest address) may have seen it at the root depth — but the
			// root gossip only targets susceptible members, and these
			// subtrees' summaries do not match. Nobody should see it.
			if saw && key != "0.0" {
				t.Errorf("uninterested process %s received the event", key)
			}
		}
	}
}

func TestDemotionWalksDepths(t *testing.T) {
	_, procs := buildGroup(t, 3, 3, 1, Config{F: 1})
	pub := procs["2.2.2"]
	ev := bEvent(1, 1)
	if err := pub.Multicast(ev); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// Tick the publisher alone until its buffers drain: the entry must walk
	// every depth and eventually drop out.
	for i := 0; i < 100 && pub.Pending() > 0; i++ {
		pub.Tick(rng)
	}
	if pub.Pending() != 0 {
		t.Error("entry never drained through the depths")
	}
}

func TestReceiveDeliversOnlyMatching(t *testing.T) {
	_, procs := buildGroup(t, 3, 2, 2, Config{F: 2})
	p := procs["0.0"] // interested in b=1
	g1 := Gossip{Event: bEvent(1, 10), Depth: 2, Rate: 0.5, Round: 0}
	g2 := Gossip{Event: bEvent(2, 11), Depth: 2, Rate: 0.5, Round: 0}
	p.Receive(g1)
	p.Receive(g2)
	evs := p.Deliveries()
	if len(evs) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(evs))
	}
	if v, _ := evs[0].Attr("b").AsInt(); v != 1 {
		t.Errorf("delivered wrong event %v", evs[0])
	}
	// Duplicate reception neither redelivers nor rebuffers.
	before := p.Pending()
	p.Receive(g1)
	if len(p.Deliveries()) != 0 || p.Pending() != before {
		t.Error("duplicate reception had effects")
	}
	// Out-of-range depth ignored.
	p.Receive(Gossip{Event: bEvent(1, 12), Depth: 9})
	if p.Pending() != before {
		t.Error("bad-depth gossip buffered")
	}
	_, received := p.Stats()
	if received != 2 {
		t.Errorf("received = %d, want 2", received)
	}
}

func TestRoundAdoption(t *testing.T) {
	// A receiver adopts the sender's round counter so the event's life-time
	// stays bounded group-wide: with an exhausted round count, the entry is
	// demoted out of depth 1 without gossiping there. It gets a fresh round
	// counter at depth 2 (Figure 3 line 18), so depth-2 sends are fine.
	_, procs := buildGroup(t, 4, 2, 2, Config{F: 2})
	p := procs["0.0"]
	p.Receive(Gossip{Event: bEvent(1, 5), Depth: 1, Rate: 1, Round: 1 << 20})
	rng := rand.New(rand.NewSource(2))
	sends := p.Tick(rng)
	for _, s := range sends {
		if s.Gossip.Depth == 1 {
			t.Errorf("exhausted entry gossiped at depth 1")
		}
	}
	// The leaf-depth budget is finite: the entry must drain.
	for i := 0; i < 50 && p.Pending() > 0; i++ {
		p.Tick(rng)
	}
	if p.Pending() != 0 {
		t.Errorf("pending = %d after demotion walk", p.Pending())
	}
}

func TestLocalDescentSkipsUninvolvedDepths(t *testing.T) {
	// Interests: only leaf group 1.1.* (publisher's own) matches b=1.
	space := addr.MustRegular(2, 3)
	members := make([]tree.Member, 0, 8)
	for i := 0; i < space.Capacity(); i++ {
		ad := space.AddressAt(i)
		sub := interest.NewSubscription().Where("b", interest.EqInt(42))
		if ad.Digit(1) == 1 && ad.Digit(2) == 1 {
			sub = interest.NewSubscription().Where("b", interest.EqInt(1))
		}
		members = append(members, tree.Member{Addr: ad, Sub: sub})
	}
	tr, err := tree.Build(tree.Config{Space: space, R: 1}, members)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(localDescent bool) *Process {
		p, err := BuildProcess(tr, addr.New(1, 1, 0), Config{F: 2, LocalDescent: localDescent})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ev := bEvent(1, 1)

	plain := mk(false)
	if err := plain.Multicast(ev); err != nil {
		t.Fatal(err)
	}
	descent := mk(true)
	if err := descent.Multicast(ev); err != nil {
		t.Fatal(err)
	}
	// The descent publisher must have inserted at depth 3 (only its own
	// subtree is interested at depths 1 and 2); the plain one at depth 1.
	// Observe indirectly: ticking the plain process at depth 1 yields no
	// sends (no other root line is susceptible), while the descent process
	// gossips to its interested leaf neighbor immediately.
	rng := rand.New(rand.NewSource(9))
	descSends := descent.Tick(rng)
	if len(descSends) == 0 {
		t.Error("descent publisher did not gossip at leaf depth immediately")
	}
	for _, s := range descSends {
		if s.Gossip.Depth != 3 {
			t.Errorf("descent send at depth %d, want 3", s.Gossip.Depth)
		}
	}
}

func TestTuningThresholdWidensAudience(t *testing.T) {
	// Nobody is interested: untuned gossip sends nothing; with h=3 the
	// first 3 view members become susceptible.
	space := addr.MustRegular(4, 1)
	members := make([]tree.Member, 4)
	for i := range members {
		members[i] = tree.Member{
			Addr: addr.New(i),
			Sub:  interest.NewSubscription().Where("b", interest.EqInt(99)),
		}
	}
	tr, err := tree.Build(tree.Config{Space: space, R: 2}, members)
	if err != nil {
		t.Fatal(err)
	}
	ev := bEvent(1, 1)
	rng := rand.New(rand.NewSource(4))

	plain, err := BuildProcess(tr, addr.New(0), Config{F: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Multicast(ev); err != nil {
		t.Fatal(err)
	}
	if sends := plain.Tick(rng); len(sends) != 0 {
		t.Errorf("untuned process gossiped %d sends with zero audience", len(sends))
	}

	tuned, err := BuildProcess(tr, addr.New(0), Config{F: 3, Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := tuned.Multicast(ev); err != nil {
		t.Fatal(err)
	}
	var total int
	for i := 0; i < 10; i++ {
		total += len(tuned.Tick(rng))
	}
	if total == 0 {
		t.Error("tuned process never gossiped despite threshold")
	}
}

func TestSampleIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.Intn(10)
		excl := rng.Intn(size+2) - 1 // sometimes −1 or out of range
		k := rng.Intn(size + 2)
		got := sampleIndices(rng, size, excl, k)
		seen := make(map[int]bool)
		for _, idx := range got {
			if idx < 0 || idx >= size {
				t.Fatalf("index %d out of range", idx)
			}
			if idx == excl {
				t.Fatalf("excluded index %d sampled", excl)
			}
			if seen[idx] {
				t.Fatalf("duplicate index %d", idx)
			}
			seen[idx] = true
		}
		pool := size
		if excl >= 0 && excl < size {
			pool--
		}
		wantLen := min(k, pool)
		if len(got) != wantLen {
			t.Fatalf("len = %d, want %d", len(got), wantLen)
		}
	}
}

func TestSampleIndicesUniform(t *testing.T) {
	// Rough uniformity check: each index sampled ≈ k/size of the time.
	rng := rand.New(rand.NewSource(13))
	counts := make([]int, 6)
	const trials = 30000
	for i := 0; i < trials; i++ {
		for _, idx := range sampleIndices(rng, 6, -1, 2) {
			counts[idx]++
		}
	}
	want := trials * 2 / 6
	for idx, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("index %d sampled %d times, want ≈%d", idx, c, want)
		}
	}
}
