package membership

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/interest"
)

// digestFleet is the fixture of the digest-form tests: a 5×5 space whose
// first 20 addresses form the shared base roster (the last five stay
// outside it, so applying one rebases a service).
type digestFleet struct {
	space addr.Space
	recs  []Record
	base  *Roster
}

func newDigestFleet(tb testing.TB) digestFleet {
	tb.Helper()
	f := digestFleet{space: addr.MustRegular(5, 2)}
	for i := 0; i < 20; i++ {
		f.recs = append(f.recs, Record{
			Addr:  f.space.AddressAt(i),
			Sub:   interest.NewSubscription().Where("b", interest.Gt(float64(i))),
			Stamp: 1,
			Alive: true,
		})
	}
	f.base = f.roster(tb)
	return f
}

func (f digestFleet) roster(tb testing.TB) *Roster {
	tb.Helper()
	base, err := NewRoster(f.recs)
	if err != nil {
		tb.Fatal(err)
	}
	return base
}

func (f digestFleet) service(tb testing.TB, self int, base *Roster) *Service {
	tb.Helper()
	s, err := NewWithRoster(Config{Self: f.space.AddressAt(self), Space: f.space, R: 2, SuspectAfter: time.Minute}, base)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// entriesForm rebuilds a digest as the plain list of its lines — what the
// wire hands a receiver.
func entriesForm(d Digest) Digest {
	return Digest{From: d.From, Hash: d.Hash, Count: d.Count, Entries: slices.Collect(d.Lines)}
}

// describeUpdate renders HandleDigest's answer for comparison: the records'
// addresses, stamps and liveness, in order.
func describeUpdate(u *Update, fresher bool) string {
	if u == nil {
		return fmt.Sprintf("nil fresher=%v", fresher)
	}
	out := fmt.Sprintf("from=%s fresher=%v", u.From, fresher)
	for _, r := range u.Records {
		out += fmt.Sprintf(" %s@%d/%v", r.Addr, r.Stamp, r.Alive)
	}
	return out
}

// FuzzDigestFormsAgree: however two services over one roster diverged —
// stamp bumps, tombstones at equal and higher stamps, a false tombstone the
// victim resurrects from, either side rebased by a stranger, or the sender
// built over a different Roster value — every service hands out the overlay
// form, and HandleDigest answers it exactly as it answers the same lines in
// entries form: the overlay walk skips only lines that cannot differ. A
// record outside the space is refused along the way, moving nothing.
func FuzzDigestFormsAgree(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{0, 3, 2, 1, 3, 2}, false)                            // both bump line 3 alike
	f.Add([]byte{0, 4, 1, 5, 4, 0}, false)                            // bump, then receiver tombstones at equal stamp
	f.Add([]byte{2, 7, 0, 3, 9, 1, 0, 7, 3}, false)                   // tombstones, then a resurrection
	f.Add([]byte{4, 0, 0, 5, 1, 0, 6, 0, 0, 7, 0, 0}, false)          // self-defence both sides, flux
	f.Add([]byte{0, 2, 1, 8, 0, 0, 1, 5, 2}, false)                   // sender rebased
	f.Add([]byte{1, 2, 1, 9, 1, 0, 0, 5, 2}, false)                   // receiver rebased
	f.Add([]byte{0, 2, 1, 1, 6, 3, 2, 11, 0, 3, 12, 1}, true)         // different base
	f.Add([]byte{8, 0, 0, 9, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 0}, false) // both rebased
	f.Add([]byte{10, 3, 0, 11, 4, 1, 8, 1, 1, 10, 2, 3}, false)       // out-of-space records refused
	f.Fuzz(func(t *testing.T, ops []byte, otherBase bool) {
		fleet := newDigestFleet(t)
		senderBase := fleet.base
		if otherBase {
			senderBase = fleet.roster(t)
		}
		const senderSelf, receiverSelf = 0, 1
		sender, receiver := fleet.service(t, senderSelf, senderBase), fleet.service(t, receiverSelf, fleet.base)
		for ; len(ops) >= 3; ops = ops[3:] {
			kind, line, arg := ops[0]%12, int(ops[1])%len(fleet.recs), uint64(ops[2]%4)
			s, self := sender, senderSelf
			if kind%2 == 1 {
				s, self = receiver, receiverSelf
			}
			cur, _ := s.Lookup(fleet.recs[line].Addr)
			var rec Record
			switch kind / 2 {
			case 0: // a peer's line moves forward, alive
				rec = Record{Addr: cur.Addr, Sub: cur.Sub, Stamp: cur.Stamp + arg, Alive: true}
			case 1: // tombstone, at the current stamp when arg is 0
				rec = Record{Addr: cur.Addr, Stamp: cur.Stamp + arg, Alive: false}
			case 2: // false tombstone against self: self-defence resurrects
				me, _ := s.Lookup(fleet.recs[self].Addr)
				rec = Record{Addr: me.Addr, Stamp: me.Stamp + 1 + arg, Alive: false}
			case 3: // own subscription flux
				s.Subscribe(interest.NewSubscription().Where("b", interest.Gt(float64(100+arg))))
				continue
			case 4: // a stranger joins: the service rebases
				rec = Record{Addr: fleet.space.AddressAt(20 + int(arg)), Sub: interest.NewSubscription(), Stamp: 1 + arg, Alive: true}
			case 5: // a record outside the space — a digit past its arity, or too deep — is refused
				bad := addr.New(line%5, 5+int(arg))
				if arg%2 == 1 {
					bad = addr.New(line%5, 0, int(arg))
				}
				v, n, h := s.Version(), s.Len(), s.RosterHash()
				if got := s.Apply(Update{Records: []Record{{Addr: bad, Stamp: 1 + arg, Alive: arg != 0}}}); got != 0 ||
					s.Version() != v || s.Len() != n || s.RosterHash() != h {
					t.Fatalf("out-of-space %s admitted: %d changes, version %d → %d", bad, got, v, s.Version())
				}
				continue
			}
			s.Apply(Update{Records: []Record{rec}})
		}

		d := sender.MakeDigest()
		if d.base == nil || d.Entries != nil {
			t.Fatalf("sender hands out base=%v with %d entries; want the overlay form", d.base != nil, len(d.Entries))
		}
		plain := entriesForm(d)
		if plain.Len() != d.Len() || d.Len() != d.Count {
			t.Fatalf("digest lists %d lines, entries form %d, count %d", d.Len(), plain.Len(), d.Count)
		}
		gotUpd, gotFresher := receiver.HandleDigest(d)
		wantUpd, wantFresher := receiver.HandleDigest(plain)
		if got, want := describeUpdate(gotUpd, gotFresher), describeUpdate(wantUpd, wantFresher); got != want {
			t.Fatalf("forms disagree (receiver on sender's base: %v)\noverlay form: %s\nentries form: %s",
				receiver.base == d.base, got, want)
		}
		if gotUpd != nil {
			for i, r := range gotUpd.Records {
				if r.Sub.Identity() != wantUpd.Records[i].Sub.Identity() {
					t.Fatalf("record %s carries different subscriptions in the two answers", r.Addr)
				}
			}
			// The pull must also be right, not merely the same twice:
			// applying the answer leaves the sender at least as fresh on
			// every line.
			sender.Apply(*gotUpd)
			if upd, _ := receiver.HandleDigest(sender.MakeDigest()); upd != nil {
				for _, r := range upd.Records {
					if !r.Addr.Equal(sender.Self()) { // self-defence may have out-stamped the update
						t.Fatalf("sender still stale on %s after applying the pull", r.Addr)
					}
				}
			}
		}
	})
}

// allocBytesPerRun is testing.AllocsPerRun for bytes.
func allocBytesPerRun(runs int, fn func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / int64(runs)
}

// TestMakeDigestCostFollowsOverlay: at fleet size a full digest costs what
// its sender's overlay costs, not what the roster costs — after a one-line
// change under 4 KB where the entries form took 128 KB — and a second digest
// at the same version costs nothing.
func TestMakeDigestCostFollowsOverlay(t *testing.T) {
	space := addr.MustRegular(16, 3)
	recs := make([]Record, space.Capacity())
	for i := range recs {
		recs[i] = Record{Addr: space.AddressAt(i), Sub: interest.NewSubscription(), Stamp: 1, Alive: true}
	}
	if len(recs) != 4096 {
		t.Fatalf("fixture has %d lines, want 4096", len(recs))
	}
	base, err := NewRoster(recs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithRoster(Config{Self: space.AddressAt(9), Space: space, R: 2, SuspectAfter: time.Minute}, base)
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[77]
	step := func() {
		rec.Stamp++
		s.Apply(Update{Records: []Record{rec}})
	}
	var d Digest
	applyOnly := testing.AllocsPerRun(20, step)
	withDigest := testing.AllocsPerRun(20, func() { step(); d = s.MakeDigest() })
	if d.Len() != 4096 || d.base != base || len(d.over) != 2 || d.Entries != nil {
		t.Fatalf("digest lists %d lines, %d of them in the overlay, %d as entries; want 4096 over the shared base, 2 (self and line 77) and none",
			d.Len(), len(d.over), len(d.Entries))
	}
	if extra := withDigest - applyOnly; extra > 2 {
		t.Errorf("MakeDigest after a one-line Apply allocates %.0f times; want the overlay copy only", extra)
	}
	bytesPerDigest := allocBytesPerRun(200, func() { step(); d = s.MakeDigest() }) - allocBytesPerRun(200, step)
	if bytesPerDigest >= 4096 {
		t.Errorf("MakeDigest after a one-line Apply allocates %d bytes; want < 4096", bytesPerDigest)
	}
	if again := testing.AllocsPerRun(20, func() { d = s.MakeDigest() }); again != 0 {
		t.Errorf("a second MakeDigest at the same version allocates %.0f times; want 0", again)
	}
}

// TestDigestInFlightIsImmutable: a digest handed out is a value of its
// version. Whatever the sender does next — bump the same lines, tombstone
// others, rebase — the lines it lists and the answer a receiver gives it do
// not move.
func TestDigestInFlightIsImmutable(t *testing.T) {
	fleet := newDigestFleet(t)
	sender, receiver := fleet.service(t, 0, fleet.base), fleet.service(t, 1, fleet.base)
	bump := func(s *Service, line int, stamp uint64, alive bool) {
		t.Helper()
		r := fleet.recs[line]
		r.Stamp, r.Alive = stamp, alive
		if s.Apply(Update{Records: []Record{r}}) != 1 {
			t.Fatalf("line %d @%d did not apply", line, stamp)
		}
	}
	bump(sender, 5, 3, true)
	bump(sender, 9, 2, false)
	bump(receiver, 5, 4, true)
	inFlight := sender.MakeDigest()
	lines := slices.Collect(inFlight.Lines)
	answer := describeUpdate(receiver.HandleDigest(inFlight))

	check := func(after string) {
		t.Helper()
		if got := slices.Collect(inFlight.Lines); !slices.Equal(got, lines) {
			t.Fatalf("after %s the in-flight digest lists different lines", after)
		}
		if got := describeUpdate(receiver.HandleDigest(inFlight)); got != answer {
			t.Fatalf("after %s the receiver answers the in-flight digest\n%s\nwas\n%s", after, got, answer)
		}
	}
	bump(sender, 5, 9, true) // a line already in the overlay
	bump(sender, 2, 2, false)
	if next := sender.MakeDigest(); slices.Equal(slices.Collect(next.Lines), lines) {
		t.Fatal("the sender's next digest lists the old lines")
	}
	check("the sender's next version")
	sender.Apply(Update{Records: []Record{{Addr: fleet.space.AddressAt(22), Stamp: 1, Alive: true}}})
	if sender.base == fleet.base {
		t.Fatal("stranger did not rebase the sender")
	}
	if d := sender.MakeDigest(); d.base != sender.base || d.Len() != 21 {
		t.Fatalf("rebased sender hands out %d lines over base %p; want the overlay form of 21 over its own base", d.Len(), d.base)
	}
	check("the sender rebased")
}

// TestChangedSinceHandsEachLineOnce: however often a line moved since the
// reader's version, ChangedSince hands out its current record once, in
// address order — across a rebase too, which must not orphan the lines
// logged before it.
func TestChangedSinceHandsEachLineOnce(t *testing.T) {
	fleet := newDigestFleet(t)
	s := fleet.service(t, 3, fleet.base)
	since := s.Version()
	apply := func(r Record) {
		t.Helper()
		if s.Apply(Update{Records: []Record{r}}) != 1 {
			t.Fatalf("%s@%d did not apply", r.Addr, r.Stamp)
		}
	}
	r7, r2 := fleet.recs[7], fleet.recs[2]
	r7.Stamp = 2
	apply(r7)
	r2.Stamp, r2.Alive = 2, false
	apply(r2)
	r7.Stamp = 3
	apply(r7)
	s.Subscribe(interest.NewSubscription())
	stranger := Record{Addr: fleet.space.AddressAt(23), Stamp: 1, Alive: true}
	apply(stranger) // rebases
	r7.Stamp = 4
	apply(r7)

	recs, ok := s.ChangedSince(since)
	if !ok {
		t.Fatal("changelog does not reach back")
	}
	var got []string
	for _, r := range recs {
		got = append(got, fmt.Sprintf("%s@%d/%v", r.Addr, r.Stamp, r.Alive))
	}
	want := []string{"0.2@2/false", "0.3@2/true", "1.2@4/true", "4.3@1/true"}
	if !slices.Equal(got, want) {
		t.Errorf("ChangedSince = %v, want %v", got, want)
	}
	if recs, ok := s.ChangedSince(s.Version()); !ok || len(recs) != 0 {
		t.Errorf("ChangedSince(current) = %v, %v; want nothing", recs, ok)
	}
}
