package membership

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/interest"
)

// rosterFixture builds a full 4×4 space roster (16 lines, stamp 1, alive)
// with per-line subscriptions.
func rosterFixture(t *testing.T) (addr.Space, []Record) {
	t.Helper()
	space := addr.MustRegular(4, 2)
	var recs []Record
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			recs = append(recs, Record{
				Addr:  addr.New(i, j),
				Sub:   interest.NewSubscription().Where("b", interest.Gt(float64(i*4+j))),
				Stamp: 1,
				Alive: true,
			})
		}
	}
	return space, recs
}

// servicePair builds the same logical service by the two routes into the one
// representation: grown (New's one-line roster, the remaining roster lines
// applied as one update, which rebases it) and bootstrapped on the whole
// roster. Everything observable must match between the two.
func servicePair(t *testing.T, self addr.Address) (grown, bootstrapped *Service) {
	t.Helper()
	space, recs := rosterFixture(t)
	cfg := Config{Self: self, Space: space, R: 2, SuspectAfter: 10 * time.Second}
	return grownService(t, cfg, recs), rosterService(t, cfg, recs)
}

// grownService is New for cfg.Self — whose subscription recs carries — with
// every other line of recs applied as one update.
func grownService(t *testing.T, cfg Config, recs []Record) *Service {
	t.Helper()
	var selfSub interest.Subscription
	var others []Record
	for _, r := range recs {
		if r.Addr.Equal(cfg.Self) {
			selfSub = r.Sub
		} else {
			others = append(others, r)
		}
	}
	s, err := New(cfg, selfSub)
	if err != nil {
		t.Fatal(err)
	}
	s.Apply(Update{Records: others})
	return s
}

// rosterService bootstraps a service on a roster of recs.
func rosterService(t *testing.T, cfg Config, recs []Record) *Service {
	t.Helper()
	base, err := NewRoster(recs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithRoster(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustAgree compares every externally observable surface of the two
// services, including the exact sequence of random peer draws.
func mustAgree(t *testing.T, grown, shared *Service, rngSeed int64) {
	t.Helper()
	if a, b := grown.RosterHash(), shared.RosterHash(); a != b {
		t.Fatalf("roster hash: grown %x, bootstrapped %x", a, b)
	}
	if a, b := grown.Len(), shared.Len(); a != b {
		t.Fatalf("alive len: grown %d, bootstrapped %d", a, b)
	}
	if a, b := grown.MakeSummaryDigest().Count, shared.MakeSummaryDigest().Count; a != b {
		t.Fatalf("record count: grown %d, bootstrapped %d", a, b)
	}
	if a, b := grown.ImmediateNeighbors(), shared.ImmediateNeighbors(); !reflect.DeepEqual(a, b) {
		t.Fatalf("neighbors: grown %v, bootstrapped %v", a, b)
	}
	if a, b := sortedRecords(grown), sortedRecords(shared); !reflect.DeepEqual(a, b) {
		t.Fatalf("records diverged:\ngrown        %v\nbootstrapped %v", a, b)
	}
	// Digest line sets (order is unspecified — compare sorted).
	ea, eb := sortedLines(grown.MakeDigest()), sortedLines(shared.MakeDigest())
	if !reflect.DeepEqual(ea, eb) {
		t.Fatalf("digest entries diverged:\ngrown        %v\nbootstrapped %v", ea, eb)
	}
	// Identical rng streams must produce identical draw sequences.
	ra, rb := rand.New(rand.NewSource(rngSeed)), rand.New(rand.NewSource(rngSeed))
	for i := 0; i < 32; i++ {
		ga, gb := grown.DigestTargets(ra, 3), shared.DigestTargets(rb, 3)
		if !reflect.DeepEqual(ga, gb) {
			t.Fatalf("3-target draw %d: grown %v, bootstrapped %v", i, ga, gb)
		}
		ta, tb := grown.DigestTargets(ra, 2), shared.DigestTargets(rb, 2)
		if !reflect.DeepEqual(ta, tb) {
			t.Fatalf("2-target draw %d: grown %v, bootstrapped %v", i, ta, tb)
		}
	}
}

// sortedRecords lists every record of the service by address.
func sortedRecords(s *Service) []Record {
	var recs []Record
	s.VisitRecords(func(r Record) { recs = append(recs, r) })
	sort.Slice(recs, func(i, j int) bool { return recs[i].Addr.Less(recs[j].Addr) })
	return recs
}

// sortedLines lists a digest's lines, whichever its form, sorted by key.
func sortedLines(d Digest) []DigestEntry {
	var es []DigestEntry
	for e := range d.Lines {
		es = append(es, e)
	}
	if len(es) != d.Len() {
		panic("digest Len disagrees with Lines")
	}
	sort.Slice(es, func(i, j int) bool { return es[i].Key < es[j].Key })
	return es
}

// TestRosterModeMatchesClassic drives the two routes into the one
// representation — a table grown line by line through Apply, as the paper's
// classic table grows, and one bootstrapped on the roster — through the same
// transition sequence (tombstones, resurrections, a subscription change,
// self-defense) and checks full observable equivalence after each step.
func TestRosterModeMatchesClassic(t *testing.T) {
	self := addr.New(1, 2)
	grown, shared := servicePair(t, self)
	if grown.base == shared.base {
		t.Fatal("the grown service shares the bootstrap roster")
	}
	mustAgree(t, grown, shared, 7)

	// Tombstone a few peers (one inside the subgroup, some outside).
	for step, victim := range []addr.Address{addr.New(1, 3), addr.New(0, 0), addr.New(3, 1)} {
		l := Leave{Addr: victim, Stamp: 2}
		grown.HandleLeave(l)
		shared.HandleLeave(l)
		mustAgree(t, grown, shared, int64(100+step))
	}

	// Resurrect one with a fresher stamp.
	res := Record{Addr: addr.New(0, 0), Sub: interest.NewSubscription(), Stamp: 3, Alive: true}
	grown.Apply(Update{Records: []Record{res}})
	shared.Apply(Update{Records: []Record{res}})
	mustAgree(t, grown, shared, 11)

	// Self subscription change bumps the overlay self line.
	sub := interest.NewSubscription().Where("x", interest.Gt(9))
	grown.Subscribe(sub)
	shared.Subscribe(sub)
	mustAgree(t, grown, shared, 13)

	// A false tombstone against self triggers self-defense identically.
	tomb := Record{Addr: self, Stamp: 5, Alive: false}
	grown.Apply(Update{Records: []Record{tomb}})
	shared.Apply(Update{Records: []Record{tomb}})
	mustAgree(t, grown, shared, 17)

	// A known line moving to a fresher stamp.
	flip := Record{Addr: addr.New(2, 2), Sub: interest.NewSubscription(), Stamp: 9, Alive: true}
	grown.Apply(Update{Records: []Record{flip}})
	shared.Apply(Update{Records: []Record{flip}})
	mustAgree(t, grown, shared, 19)

	// Cross-digest: each route must see the other as identical, probe or full.
	for _, d := range []Digest{shared.MakeSummaryDigest(), shared.MakeDigest()} {
		if upd, fresher := grown.HandleDigest(d); upd != nil || fresher {
			t.Fatalf("grown sees bootstrapped as divergent: upd=%v fresher=%v", upd, fresher)
		}
	}
	for _, d := range []Digest{grown.MakeSummaryDigest(), grown.MakeDigest()} {
		if upd, fresher := shared.HandleDigest(d); upd != nil || fresher {
			t.Fatalf("bootstrapped sees grown as divergent: upd=%v fresher=%v", upd, fresher)
		}
	}
}

// TestRosterSweepAndPoolMapping exercises the failure detector and the
// rank-through-exclusion pool mapping with many dead lines, on both routes.
func TestRosterSweepAndPoolMapping(t *testing.T) {
	now := time.Unix(1000, 0)
	space, recs := rosterFixture(t)
	self := addr.New(1, 2)
	cfg := Config{
		Self: self, Space: space, R: 2,
		SuspectAfter: 5 * time.Second,
		Now:          func() time.Time { return now },
	}
	grown, shared := grownService(t, cfg, recs), rosterService(t, cfg, recs)

	// First sweep grandfathers; advance past the deadline and sweep again —
	// the whole subgroup is expelled identically.
	grown.SweepFailures()
	shared.SweepFailures()
	now = now.Add(6 * time.Second)
	sa, sb := grown.SweepFailures(), shared.SweepFailures()
	if !reflect.DeepEqual(sa, sb) || len(sa) == 0 {
		t.Fatalf("sweep diverged: grown %v, bootstrapped %v", sa, sb)
	}
	mustAgree(t, grown, shared, 23)

	// Tombstone most of the fleet so poolGone is dense, then verify the
	// draw sequences still match exactly.
	stamp := uint64(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			a := addr.New(i, j)
			if a.Equal(self) || (i == 3 && j == 3) || (i == 0 && j == 1) {
				continue
			}
			l := Leave{Addr: a, Stamp: stamp}
			grown.HandleLeave(l)
			shared.HandleLeave(l)
		}
	}
	mustAgree(t, grown, shared, 29)
	if got := shared.Len(); got != 3 {
		t.Fatalf("alive len = %d, want 3 (self + 2 survivors)", got)
	}
}

// TestStrangersRebaseOnce: a batch carrying three strangers — one listed
// twice, the later copy fresher — rebases the service once, onto the
// current table plus the three, and leaves it equal to the service
// bootstrapped on that table; the changelog names each line once across the
// rebase, at its current state.
func TestStrangersRebaseOnce(t *testing.T) {
	space := addr.MustRegular(4, 3) // deeper space: the roster covers only a slice
	var recs []Record
	for i := 0; i < 4; i++ {
		recs = append(recs, Record{Addr: addr.New(0, 0, i), Sub: interest.NewSubscription(), Stamp: 1, Alive: true})
	}
	cfg := Config{Self: addr.New(0, 0, 1), Space: space, R: 2, SuspectAfter: time.Minute}
	s := rosterService(t, cfg, recs)
	before, since := s.base, s.Version()

	sub := func(v float64) interest.Subscription { return interest.NewSubscription().Where("b", interest.Gt(v)) }
	known := Record{Addr: addr.New(0, 0, 3), Sub: sub(3), Stamp: 2, Alive: true}
	batch := []Record{
		{Addr: addr.New(1, 2, 3), Sub: sub(1), Stamp: 1, Alive: true},
		known,
		{Addr: addr.New(0, 1, 0), Sub: sub(2), Stamp: 2, Alive: false},
		{Addr: addr.New(1, 2, 3), Sub: sub(9), Stamp: 4, Alive: true}, // fresher: wins
		{Addr: addr.New(3, 3, 3), Sub: sub(4), Stamp: 1, Alive: true},
		{Addr: addr.New(1, 2, 3), Sub: sub(5), Stamp: 2, Alive: true}, // staler: loses
	}
	if got := s.Apply(Update{Records: batch}); got != 5 {
		t.Fatalf("Apply = %d changes, want 5 (the known line, three strangers, the fresher copy)", got)
	}
	if s.Version() != since+1 {
		t.Fatalf("version moved %d → %d; one batch lands on one version", since, s.Version())
	}
	if s.base == before || before.Len() != 4 || s.base.Len() != 7 {
		t.Fatalf("base %p (%d lines) after %p (%d lines); want a new base of 7", s.base, s.base.Len(), before, before.Len())
	}

	want := append(append([]Record(nil), recs...), batch[3], batch[2], batch[4])
	want[3] = known
	mustAgree(t, s, rosterService(t, cfg, want), 31)

	changed, ok := s.ChangedSince(since)
	if !ok {
		t.Fatal("changelog does not reach back across the rebase")
	}
	var got []string
	for _, r := range changed {
		got = append(got, fmt.Sprintf("%s@%d/%v", r.Addr, r.Stamp, r.Alive))
	}
	if w := []string{"0.0.3@2/true", "0.1.0@2/false", "1.2.3@4/true", "3.3.3@1/true"}; !slices.Equal(got, w) {
		t.Errorf("ChangedSince = %v, want %v", got, w)
	}
	if r, _ := s.Lookup(addr.New(1, 2, 3)); r.Sub.Identity() != sub(9).Identity() {
		t.Error("the twice-listed stranger kept the staler copy's subscription")
	}
}

// TestNewWithRosterRejectsStrangers pins the constructor contract.
func TestNewWithRosterRejectsStrangers(t *testing.T) {
	_, recs := rosterFixture(t)
	base, err := NewRoster(recs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Self: addr.New(1, 2), Space: addr.MustRegular(4, 3), R: 2}
	// Self of the wrong depth fails space validation before roster lookup.
	if _, err := NewWithRoster(cfg, base); err == nil {
		t.Error("wrong-depth self accepted")
	}
	// Duplicate roster lines are rejected.
	if _, err := NewRoster(append(recs, recs[0])); err == nil {
		t.Error("duplicate roster address accepted")
	}
}

// TestHandleDigestAnyOrder pins the positional walk in HandleDigest: a
// service resolves a digest listed in base order without hashing, and must
// answer exactly alike on both routes however the gossiper ordered its
// lines, wherever the key strings live, and whether or not the digest names
// lines the receiver lacks.
func TestHandleDigestAnyOrder(t *testing.T) {
	self := addr.New(1, 2)
	grown, shared := servicePair(t, self)
	for _, l := range []Leave{{Addr: addr.New(0, 1), Stamp: 2}, {Addr: addr.New(3, 3), Stamp: 4}} {
		grown.HandleLeave(l)
		shared.HandleLeave(l)
	}

	// The gossiper: fresher on some lines, staler on others, one line the
	// receivers have never heard of, listed in base order.
	_, recs := rosterFixture(t)
	var entries []DigestEntry
	for i, r := range recs {
		e := DigestEntry{Key: string(append([]byte(nil), r.Addr.Key()...)), Stamp: 1, Alive: true}
		switch i % 5 {
		case 1:
			e.Stamp = 7 // the gossiper is fresher
		case 3:
			e.Stamp = 0 // the receivers are fresher
		}
		entries = append(entries, e)
		if i == 6 {
			entries = append(entries, DigestEntry{Key: "9.9", Stamp: 1, Alive: true})
		}
	}
	orders := map[string]func([]DigestEntry){
		"base":     func([]DigestEntry) {},
		"reversed": func(es []DigestEntry) { sort.SliceStable(es, func(i, j int) bool { return i > j }) },
		"shuffled": func(es []DigestEntry) {
			rand.New(rand.NewSource(5)).Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		},
		"truncated": func(es []DigestEntry) {
			for i := range es[:len(es)/2] {
				es[i] = es[len(es)-1-i] // duplicates stand in for missing lines
			}
		},
	}
	for name, reorder := range orders {
		es := append([]DigestEntry(nil), entries...)
		reorder(es)
		d := Digest{From: addr.New(2, 0), Hash: 1, Count: len(es), Entries: es}
		wantUpd, wantFresher := grown.HandleDigest(d)
		gotUpd, gotFresher := shared.HandleDigest(d)
		if gotFresher != wantFresher || !reflect.DeepEqual(gotUpd, wantUpd) {
			t.Errorf("%s: bootstrapped answered (%v, %v), grown (%v, %v)", name, gotUpd, gotFresher, wantUpd, wantFresher)
		}
		if wantUpd == nil || !wantFresher {
			t.Fatalf("%s: fixture no longer diverges both ways (upd=%v fresher=%v)", name, wantUpd, wantFresher)
		}
	}
}
