package membership

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/interest"
)

func newService(t *testing.T, self string, now *time.Time) *Service {
	t.Helper()
	cfg := Config{
		Self:         addr.MustParse(self),
		Space:        addr.MustRegular(4, 2),
		R:            2,
		SuspectAfter: 10 * time.Second,
	}
	if now != nil {
		cfg.Now = func() time.Time { return *now }
	}
	s, err := New(cfg, interest.NewSubscription().Where("b", interest.Gt(0)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, interest.NewSubscription()); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := New(Config{Self: addr.New(9, 9), Space: addr.MustRegular(4, 2), R: 2},
		interest.NewSubscription()); err == nil {
		t.Error("out-of-space self accepted")
	}
	if _, err := New(Config{Self: addr.New(1, 1), Space: addr.MustRegular(4, 2), R: 0},
		interest.NewSubscription()); err == nil {
		t.Error("R=0 accepted")
	}
}

func TestSelfRecordSeeded(t *testing.T) {
	s := newService(t, "1.2", nil)
	r, ok := s.Lookup(addr.New(1, 2))
	if !ok || !r.Alive || r.Stamp != 1 {
		t.Fatalf("self record = %+v, %v", r, ok)
	}
	if s.Len() != 1 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestDigestPullCycle(t *testing.T) {
	a := newService(t, "0.0", nil)
	b := newService(t, "1.1", nil)
	// b learns about a through a's join announcement, then a pulls b's state.
	jr := a.BuildJoinRequest()
	reply, _, _ := b.HandleJoinRequest(jr)
	a.Apply(reply)
	if a.Len() != 2 {
		t.Fatalf("a should know both, len = %d", a.Len())
	}
	// Now a gossips a digest to b; b replies nothing (b's records are all in
	// a... actually b doesn't know a's subscription updates yet — b learned
	// a's record from the join, so the digest exchange finds both in sync).
	if upd, _ := b.HandleDigest(a.MakeDigest()); upd != nil {
		t.Errorf("unexpected update: %+v", upd)
	}
	// a updates its subscription; b's digest handling must push the stale
	// gossiper (a gossips to b, b replies with nothing since b is staler —
	// pull works the other way: b gossips to a, a replies with fresh line).
	a.Subscribe(interest.NewSubscription().Where("b", interest.Gt(10)))
	upd, _ := a.HandleDigest(b.MakeDigest())
	if upd == nil {
		t.Fatal("a should push its fresher self record to the gossiper b")
	}
	if got := b.Apply(*upd); got == 0 {
		t.Error("b did not apply the fresh record")
	}
	rec, _ := b.Lookup(addr.New(0, 0))
	if rec.Stamp != 2 {
		t.Errorf("b's copy stamp = %d, want 2", rec.Stamp)
	}
}

// TestApplyStampRules: every (stamp below / at / above) × (alive, tombstone)
// record against a line held alive or dead at stamp 3, for a peer's line and
// for self's. The higher stamp wins whole; a tombstone wins a tie and keeps
// the line's subscription; self answers a winning tombstone alive one stamp
// above it, keeping its own subscription.
func TestApplyStampRules(t *testing.T) {
	const held = 3
	recSub := interest.NewSubscription().Where("b", interest.Gt(9))
	type want struct {
		stamp  uint64
		alive  bool
		recSub bool // the line took the record's subscription
	}
	for _, tc := range []struct {
		self, heldAlive bool
		delta           int
		alive           bool
		want            *want // nil: nothing changes
	}{
		{false, true, -1, true, nil},
		{false, true, -1, false, nil},
		{false, true, 0, true, nil},
		{false, true, 0, false, &want{held, false, false}},
		{false, true, +1, true, &want{held + 1, true, true}},
		{false, true, +1, false, &want{held + 1, false, true}},
		{false, false, -1, true, nil},
		{false, false, -1, false, nil},
		{false, false, 0, true, nil}, // equal stamp alive does not resurrect
		{false, false, 0, false, nil},
		{false, false, +1, true, &want{held + 1, true, true}},
		{false, false, +1, false, &want{held + 1, false, true}},
		{true, true, -1, true, nil},
		{true, true, -1, false, nil},
		{true, true, 0, true, nil},
		{true, true, 0, false, &want{held + 1, true, false}},
		{true, true, +1, true, &want{held + 1, true, true}},
		{true, true, +1, false, &want{held + 2, true, false}},
		{true, false, -1, true, nil},
		{true, false, -1, false, nil},
		{true, false, 0, true, nil},
		{true, false, 0, false, nil},
		{true, false, +1, true, &want{held + 1, true, true}},
		{true, false, +1, false, &want{held + 2, true, false}},
	} {
		name := fmt.Sprintf("self=%v/held_alive=%v/stamp%+d/alive=%v", tc.self, tc.heldAlive, tc.delta, tc.alive)
		t.Run(name, func(t *testing.T) {
			s := newService(t, "0.0", nil)
			line := addr.New(2, 2)
			if tc.self {
				line = s.Self()
				s.Subscribe(interest.NewSubscription().Where("b", interest.Gt(1)))
				if tc.heldAlive {
					s.Subscribe(interest.NewSubscription().Where("b", interest.Gt(2)))
				} else {
					s.BuildLeave()
				}
			} else if n := s.Apply(Update{Records: []Record{{Addr: line, Sub: interest.NewSubscription().Where("b", interest.Gt(2)), Stamp: held, Alive: tc.heldAlive}}}); n != 1 {
				t.Fatal("fresh record rejected")
			}
			before, _ := s.Lookup(line)
			if before.Stamp != held || before.Alive != tc.heldAlive {
				t.Fatalf("held %+v", before)
			}
			v := s.Version()
			n := s.Apply(Update{Records: []Record{{Addr: line, Sub: recSub, Stamp: uint64(held + tc.delta), Alive: tc.alive}}})
			got, _ := s.Lookup(line)
			if tc.want == nil {
				if n != 0 || s.Version() != v || got.Stamp != before.Stamp || got.Alive != before.Alive {
					t.Fatalf("applied %d, line %+v at version %d; want nothing changed", n, got, s.Version())
				}
				return
			}
			wantSub := before.Sub
			if tc.want.recSub {
				wantSub = recSub
			}
			if n != 1 || s.Version() != v+1 || got.Stamp != tc.want.stamp || got.Alive != tc.want.alive ||
				got.Sub.Identity() != wantSub.Identity() {
				t.Fatalf("applied %d, line %+v at version %d; want stamp %d alive=%v, the record's subscription: %v",
					n, got, s.Version(), tc.want.stamp, tc.want.alive, tc.want.recSub)
			}
		})
	}
}

func TestSelfDefenseAgainstFalseTombstone(t *testing.T) {
	s := newService(t, "0.0", nil)
	v := s.Version()
	s.Apply(Update{Records: []Record{{Addr: addr.New(0, 0), Stamp: 9, Alive: false}}})
	rec, _ := s.Lookup(addr.New(0, 0))
	if !rec.Alive {
		t.Fatal("service accepted its own death")
	}
	if rec.Stamp <= 9 {
		t.Errorf("resurrection stamp %d must exceed the tombstone's", rec.Stamp)
	}
	if s.Version() == v {
		t.Error("version must bump so the correction propagates")
	}
}

// TestSelfDefenseAgainstEqualStampTombstone: a tombstone for a service's own
// line at its current stamp — through any of the three doors a record enters
// by — is answered like a fresher one: self stays alive, at the tombstone's
// stamp plus one, and stays alive through a later Subscribe. A peer that took
// the tombstone sees self alive again after one digest exchange.
func TestSelfDefenseAgainstEqualStampTombstone(t *testing.T) {
	self := addr.New(0, 0)
	tombstone := Record{Addr: self, Stamp: 1, Alive: false}
	for name, forge := range map[string]func(s *Service){
		"Apply":             func(s *Service) { s.Apply(Update{Records: []Record{tombstone}}) },
		"HandleJoinRequest": func(s *Service) { s.HandleJoinRequest(JoinRequest{Joiner: tombstone, Hops: 2}) },
		"HandleLeave":       func(s *Service) { s.HandleLeave(Leave{Addr: self, Stamp: tombstone.Stamp}) },
	} {
		t.Run(name, func(t *testing.T) {
			s := newService(t, "0.0", nil)
			peer := newService(t, "0.1", nil)
			reply, _, _ := peer.HandleJoinRequest(s.BuildJoinRequest())
			s.Apply(reply)

			forge(s)
			if rec, _ := s.Lookup(self); !rec.Alive || rec.Stamp != tombstone.Stamp+1 {
				t.Fatalf("after the tombstone, self is %+v; want alive at stamp %d", rec, tombstone.Stamp+1)
			}
			peer.Apply(Update{Records: []Record{tombstone}})
			if rec, _ := peer.Lookup(self); rec.Alive {
				t.Fatal("the peer did not take the equal-stamp tombstone")
			}
			if upd, _ := s.HandleDigest(peer.MakeDigest()); upd != nil {
				peer.Apply(*upd)
			}
			if rec, _ := peer.Lookup(self); !rec.Alive || rec.Stamp != tombstone.Stamp+1 {
				t.Errorf("after one digest exchange the peer holds self as %+v", rec)
			}
			s.Subscribe(interest.NewSubscription().Where("b", interest.Gt(5)))
			if rec, _ := s.Lookup(self); !rec.Alive || rec.Stamp != tombstone.Stamp+2 {
				t.Errorf("after Subscribe, self is %+v", rec)
			}
		})
	}
}

func TestJoinForwardsTowardsNeighbors(t *testing.T) {
	// Contact 0.0 knows 2.0; joiner 2.3 should be forwarded to 2.0 (deeper
	// common prefix with the joiner than the contact itself).
	contact := newService(t, "0.0", nil)
	contact.Apply(Update{Records: []Record{{Addr: addr.New(2, 0), Stamp: 1, Alive: true}}})

	joiner := newService(t, "2.3", nil)
	reply, fwd, ok := contact.HandleJoinRequest(joiner.BuildJoinRequest())
	if len(reply.Records) != 3 {
		t.Errorf("join reply records = %d, want 3", len(reply.Records))
	}
	if !ok || !fwd.Equal(addr.New(2, 0)) {
		t.Errorf("forward = %v, %v; want 2.0", fwd, ok)
	}
	// The contact admitted the joiner.
	if _, known := contact.Lookup(addr.New(2, 3)); !known {
		t.Error("contact did not admit joiner")
	}
	// The neighbor itself has nobody closer: no forward.
	neighbor := newService(t, "2.0", nil)
	_, _, ok = neighbor.HandleJoinRequest(joiner.BuildJoinRequest())
	if ok {
		t.Error("immediate neighbor should not forward")
	}
}

func TestLeaveTombstonePropagates(t *testing.T) {
	a := newService(t, "0.0", nil)
	b := newService(t, "0.1", nil)
	reply, _, _ := b.HandleJoinRequest(a.BuildJoinRequest())
	a.Apply(reply)

	leave := a.BuildLeave()
	b.HandleLeave(leave)
	rec, _ := b.Lookup(addr.New(0, 0))
	if rec.Alive {
		t.Fatal("leave did not tombstone")
	}
	// The tombstone must flow onwards through anti-entropy.
	c := newService(t, "0.2", nil)
	if upd, _ := b.HandleDigest(c.MakeDigest()); upd != nil {
		c.Apply(*upd)
	}
	recC, known := c.Lookup(addr.New(0, 0))
	if !known || recC.Alive {
		t.Error("tombstone did not propagate via pull")
	}
}

// TestFailureDetection pins the one-sweep detector: a neighbor heard within
// the deadline survives any number of sweeps, a life sign that lands after
// the deadline passed but before the sweep saves it, and the first sweep that
// finds it silent past the deadline expels it and tombstones its record.
func TestFailureDetection(t *testing.T) {
	now := time.Unix(1000, 0)
	s := newService(t, "0.0", &now)
	neighbor := addr.New(0, 1)
	distant := addr.New(3, 3)
	s.Apply(Update{From: neighbor, Records: []Record{
		{Addr: neighbor, Stamp: 1, Alive: true},
		{Addr: distant, Stamp: 1, Alive: true},
	}})
	// First sweep: nothing suspected (fresh contact).
	if sus := s.SweepFailures(); len(sus) != 0 {
		t.Fatalf("premature suspicion: %v", sus)
	}
	// Heard within the deadline (10s, silence of exactly 10s included):
	// never suspected, however many sweeps run.
	for i := range 20 {
		now = now.Add(time.Duration(9+i%2) * time.Second)
		if sus := s.SweepFailures(); len(sus) != 0 {
			t.Fatalf("sweep %d suspected a neighbor heard within the deadline: %v", i, sus)
		}
		s.MarkHeardAt(neighbor, now)
	}
	// The deadline passes, but a life sign arrives before the sweep.
	now = now.Add(11 * time.Second)
	s.MarkHeardAt(neighbor, now)
	if sus := s.SweepFailures(); len(sus) != 0 {
		t.Fatalf("a life sign just before the sweep did not save the neighbor: %v", sus)
	}
	// Silence beyond the deadline: the first sweep expels the neighbor; the
	// distant process is not monitored (only immediate neighbors are).
	v := s.Version()
	now = now.Add(11 * time.Second)
	sus := s.SweepFailures()
	if len(sus) != 1 || !sus[0].Equal(neighbor) {
		t.Fatalf("suspected = %v, want [0.1]", sus)
	}
	rec, _ := s.Lookup(neighbor)
	if rec.Alive || rec.Stamp != 2 {
		t.Errorf("expelled neighbor = %+v, want a tombstone at stamp 2", rec)
	}
	if s.Version() == v {
		t.Error("expulsion did not move the membership version")
	}
	if recD, _ := s.Lookup(distant); !recD.Alive {
		t.Error("distant process wrongly tombstoned")
	}
	if sus := s.SweepFailures(); len(sus) != 0 {
		t.Errorf("expelled neighbor suspected again: %v", sus)
	}
	// Life signs reset the clock.
	now = now.Add(time.Minute)
	s.Apply(Update{From: distant, Records: []Record{{Addr: neighbor, Stamp: 5, Alive: true}}})
	s.MarkHeardAt(neighbor, now)
	if sus := s.SweepFailures(); len(sus) != 0 {
		t.Errorf("re-suspected immediately after contact: %v", sus)
	}
}

// TestPayloadFromIsNoLifeSign: a digest or an Update naming a silent
// neighbor as its From — forged, or relayed by a third party — does not
// refresh the failure detector; only MarkHeardAt, the envelope's sender,
// does. The neighbor falls silent for 400 ms under a 100 ms deadline while
// payloads naming it arrive every 40 ms, and the sweeps expel it all the
// same.
func TestPayloadFromIsNoLifeSign(t *testing.T) {
	neighbor := addr.New(0, 1)
	for name, forge := range map[string]func(*Service){
		"digest": func(s *Service) { s.HandleDigest(Digest{From: neighbor}) },
		"update": func(s *Service) { s.Apply(Update{From: neighbor}) },
	} {
		t.Run(name, func(t *testing.T) {
			now := time.Unix(1000, 0)
			s, err := New(Config{
				Self: addr.New(0, 0), Space: addr.MustRegular(4, 2), R: 2,
				SuspectAfter: 100 * time.Millisecond,
				Now:          func() time.Time { return now },
			}, interest.NewSubscription())
			if err != nil {
				t.Fatal(err)
			}
			s.Apply(Update{Records: []Record{{Addr: neighbor, Stamp: 1, Alive: true}}})
			s.MarkHeardAt(neighbor, now)
			var expelled []addr.Address
			for range 10 {
				now = now.Add(40 * time.Millisecond)
				forge(s)
				expelled = append(expelled, s.SweepFailures()...)
			}
			if len(expelled) != 1 || !expelled[0].Equal(neighbor) {
				t.Errorf("a neighbor silent for 400 ms behind %s payloads naming it: expelled %v, want [0.1]", name, expelled)
			}
		})
	}
}

// TestDigestTargets: the first target is an immediate neighbor, every
// target is a distinct alive peer, and a request past the pool caps at it.
func TestDigestTargets(t *testing.T) {
	s := newService(t, "0.0", nil)
	for i := 1; i < 8; i++ {
		s.Apply(Update{Records: []Record{{Addr: addr.New(i/4, i%4), Stamp: 1, Alive: true}}})
	}
	rng := rand.New(rand.NewSource(1))
	targets := s.DigestTargets(rng, 3)
	if len(targets) != 3 {
		t.Fatalf("targets = %d", len(targets))
	}
	if !targets[0].HasPrefix(s.Self().Prefix(2)) {
		t.Errorf("first target %s is no immediate neighbor", targets[0])
	}
	seen := map[string]bool{}
	for _, a := range targets {
		if a.Equal(addr.New(0, 0)) {
			t.Error("self targeted")
		}
		if seen[a.Key()] {
			t.Error("duplicate target")
		}
		seen[a.Key()] = true
	}
	// Request exceeding peers caps gracefully.
	if got := s.DigestTargets(rng, 99); len(got) != 7 {
		t.Errorf("capped targets = %d, want 7", len(got))
	}
}

func TestImmediateNeighborsAndVisitRecords(t *testing.T) {
	s := newService(t, "1.0", nil)
	s.Apply(Update{Records: []Record{
		{Addr: addr.New(1, 1), Stamp: 1, Alive: true},
		{Addr: addr.New(1, 2), Stamp: 1, Alive: false}, // dead: excluded
		{Addr: addr.New(2, 0), Stamp: 1, Alive: true},  // other subgroup
	}})
	nbrs := s.ImmediateNeighbors()
	if len(nbrs) != 1 || !nbrs[0].Equal(addr.New(1, 1)) {
		t.Errorf("neighbors = %v", nbrs)
	}
	all, alive := 0, 0
	s.VisitRecords(func(r Record) {
		all++
		if r.Alive {
			alive++
		}
	})
	if all != 4 || alive != 3 { // self + 1.1 + 2.0 alive, 1.2 tombstoned
		t.Errorf("VisitRecords saw %d records, %d alive; want 4 and 3", all, alive)
	}
}

func TestSubscribeBumpsStamp(t *testing.T) {
	s := newService(t, "0.0", nil)
	v := s.Version()
	s.Subscribe(interest.NewSubscription().Where("z", interest.EqInt(1)))
	rec, _ := s.Lookup(addr.New(0, 0))
	if rec.Stamp != 2 {
		t.Errorf("stamp = %d", rec.Stamp)
	}
	if s.Version() <= v {
		t.Error("version not bumped")
	}
}

func TestAntiEntropyConvergence(t *testing.T) {
	// A ring of services, each gossiping digests to a random peer: all must
	// converge to identical record sets.
	const n = 8
	services := make([]*Service, n)
	for i := range services {
		services[i] = newService(t, addr.New(i/4, i%4).String(), nil)
	}
	// Everyone initially knows only the next ring member (via join).
	for i, s := range services {
		next := services[(i+1)%n]
		reply, _, _ := next.HandleJoinRequest(s.BuildJoinRequest())
		s.Apply(reply)
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 40; round++ {
		for _, s := range services {
			for _, to := range s.DigestTargets(rng, 2) {
				// Route the digest to the owner of `to`.
				for _, other := range services {
					if other.Self().Equal(to) {
						if upd, _ := other.HandleDigest(s.MakeDigest()); upd != nil {
							s.Apply(*upd)
						}
					}
				}
			}
		}
	}
	for i, s := range services {
		if s.Len() != n {
			t.Errorf("service %d knows %d of %d members", i, s.Len(), n)
		}
	}
}

// TestOutOfSpaceRecordsRefused: a record whose address does not fit the
// space — too deep, too shallow, a digit past its arity — is refused at every
// door: an Update's records, a JoinRequest's joiner, a Leave's address. The
// version, the alive count and the roster hash do not move, on a service
// that starts alone and on one bootstrapped on a roster, and a refused
// joiner gets no reply records and no forward hop.
func TestOutOfSpaceRecordsRefused(t *testing.T) {
	space, recs := rosterFixture(t)
	cfg := Config{Self: addr.New(1, 2), Space: space, R: 2, SuspectAfter: time.Minute}
	alone, err := New(cfg, interest.NewSubscription())
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Service{"alone": alone, "roster": rosterService(t, cfg, recs)} {
		for _, bad := range []addr.Address{addr.New(0, 0, 0), addr.New(2), addr.New(4, 0), addr.New(1, 7)} {
			v, n, h := s.Version(), s.Len(), s.RosterHash()
			unchanged := func(door string) {
				t.Helper()
				if s.Version() != v || s.Len() != n || s.RosterHash() != h {
					t.Errorf("%s: %s %s moved the service: version %d → %d, len %d → %d", name, door, bad, v, s.Version(), n, s.Len())
				}
				if _, ok := s.Lookup(bad); ok {
					t.Errorf("%s: %s %s admitted a line", name, door, bad)
				}
			}
			rec := Record{Addr: bad, Sub: interest.NewSubscription(), Stamp: 3, Alive: true}
			if got := s.Apply(Update{From: addr.New(0, 0), Records: []Record{rec}}); got != 0 {
				t.Errorf("%s: Apply of %s changed %d records", name, bad, got)
			}
			unchanged("Update")
			if reply, fwd, ok := s.HandleJoinRequest(JoinRequest{Joiner: rec, Hops: 2}); len(reply.Records) != 0 || ok || !fwd.IsZero() {
				t.Errorf("%s: refused joiner %s got %d reply records and forward %v (%s)", name, bad, len(reply.Records), ok, fwd)
			}
			unchanged("JoinRequest")
			s.HandleLeave(Leave{Addr: bad, Stamp: 3})
			unchanged("Leave")
		}
	}
}

// TestDetectorStateBoundedBySubgroup: traffic from 200 processes outside the
// subgroup — plus forged senders outside the space — leaves the failure
// detector's map holding at most the subgroup, however it arrives.
func TestDetectorStateBoundedBySubgroup(t *testing.T) {
	now := time.Unix(0, 0)
	space := addr.MustRegular(16, 2)
	s, err := New(Config{Self: addr.New(3, 3), Space: space, R: 2, SuspectAfter: time.Second,
		Now: func() time.Time { return now }}, interest.NewSubscription())
	if err != nil {
		t.Fatal(err)
	}
	subgroup := space.Arity(2)
	var senders []addr.Address
	for i := 0; len(senders) < 200; i++ {
		if a := space.AddressAt(i); !a.HasPrefix(s.Self().Prefix(2)) {
			senders = append(senders, a)
		}
	}
	senders = append(senders, addr.New(3, 99), addr.New(3, 3, 3), addr.New(99))
	for i, a := range senders {
		now = now.Add(time.Millisecond)
		s.MarkHeardAt(a, now)
		s.Apply(Update{From: a})
		s.HandleDigest(Digest{From: a, Hash: uint64(i)})
		s.HandleJoinRequest(JoinRequest{Joiner: Record{Addr: a, Stamp: 1, Alive: true}})
	}
	// Neighbors join, fall silent and are swept, so the detector sees use.
	for j := 0; j < subgroup; j++ {
		s.Apply(Update{Records: []Record{{Addr: addr.New(3, j), Stamp: 2, Alive: true}}})
	}
	for range 3 {
		now = now.Add(2 * time.Second)
		s.SweepFailures()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.lastHeard) > subgroup {
		t.Errorf("detector holds %d contact times; want at most the subgroup's %d",
			len(s.lastHeard), subgroup)
	}
	for key := range s.lastHeard {
		if a := addr.MustParse(key); !a.HasPrefix(s.selfPrefix) {
			t.Errorf("contact time kept for %s, outside the subgroup", key)
		}
	}
}

// TestMarkHeardRecordsOnlyNeighbours: a life sign from outside the subgroup
// — a process under another prefix, or an address outside the space —
// leaves the detector's contact times untouched, and one from a neighbour
// moves its time to the mark's. A joiner's request marks it the same way.
func TestMarkHeardRecordsOnlyNeighbours(t *testing.T) {
	start := time.Unix(0, 0)
	s, err := New(Config{Self: addr.New(3, 3), Space: addr.MustRegular(16, 2), R: 2, SuspectAfter: time.Second,
		Now: func() time.Time { return start }}, interest.NewSubscription())
	if err != nil {
		t.Fatal(err)
	}
	heard := func() map[string]time.Time {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return maps.Clone(s.lastHeard)
	}
	before := heard()
	for i, a := range []addr.Address{addr.New(4, 3), addr.New(3, 99), addr.New(3, 3, 3)} {
		s.MarkHeardAt(a, start.Add(time.Duration(i+1)*time.Second))
		s.HandleJoinRequest(JoinRequest{Joiner: Record{Addr: a, Stamp: 1, Alive: true}})
	}
	if after := heard(); !maps.Equal(before, after) {
		t.Errorf("non-neighbours moved the contact times: %v, then %v", before, after)
	}
	neighbour := addr.New(3, 5)
	at := start.Add(time.Hour)
	s.MarkHeardAt(neighbour, at)
	if got, ok := heard()[neighbour.Key()]; !ok || !got.Equal(at) {
		t.Errorf("a neighbour's mark left its contact time at %v (held %v), want %v", got, ok, at)
	}
	joiner := addr.New(3, 6)
	s.HandleJoinRequest(JoinRequest{Joiner: Record{Addr: joiner, Stamp: 1, Alive: true}})
	if got, ok := heard()[joiner.Key()]; !ok || !got.Equal(start) {
		t.Errorf("a neighbour's join left its contact time at %v (held %v), want %v", got, ok, start)
	}
}
