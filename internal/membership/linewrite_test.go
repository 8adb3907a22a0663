package membership

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/interest"
)

// lineState is what the derivations compare of one line: everything a
// Record holds, the subscription by identity.
type lineState struct {
	key   string
	stamp uint64
	alive bool
	sub   interest.Identity
}

func stateOf(r Record) lineState {
	return lineState{key: r.Addr.Key(), stamp: r.Stamp, alive: r.Alive, sub: r.Sub.Identity()}
}

// writeWorld is FuzzMembershipLineWrites' fixture: three services over one
// 3×3 space on a stepped clock. Two share a roster of the first six
// addresses, selves 0.0 and 0.1 (immediate neighbors of each other); the
// third starts alone as 2.1, a stranger to them. For each service it keeps
// what the derivation of ChangedSince needs: the version every line last
// changed at, and the versions seen between ops.
type writeWorld struct {
	space addr.Space
	now   time.Time
	subs  [3]interest.Subscription
	svcs  [3]*Service
	// changedAt[i][key] is the version service i was at after the op that
	// last changed line key, tables[i] its logical table after the last op,
	// versions[i] its versions between ops.
	changedAt [3]map[string]uint64
	versions  [3][]uint64
	tables    [3]map[string]lineState
	// fed lists every record an apply op handed a service, for the order
	// check.
	fed []Record
}

func newWriteWorld(tb testing.TB) *writeWorld {
	tb.Helper()
	w := &writeWorld{space: addr.MustRegular(3, 2), now: time.Unix(0, 0)}
	for i := range w.subs {
		w.subs[i] = interest.NewSubscription().Where("b", interest.Gt(float64(10*i)))
	}
	var recs []Record
	for i := 0; i < 6; i++ {
		recs = append(recs, Record{Addr: w.space.AddressAt(i), Sub: w.subs[i%3], Stamp: 1, Alive: true})
	}
	base, err := NewRoster(recs)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := func(self string) Config {
		return Config{Self: addr.MustParse(self), Space: w.space, R: 2, SuspectAfter: 2 * time.Second,
			Now: func() time.Time { return w.now }}
	}
	if w.svcs[0], err = NewWithRoster(cfg("0.0"), base); err != nil {
		tb.Fatal(err)
	}
	if w.svcs[1], err = NewWithRoster(cfg("0.1"), base); err != nil {
		tb.Fatal(err)
	}
	if w.svcs[2], err = New(cfg("2.1"), w.subs[2]); err != nil {
		tb.Fatal(err)
	}
	for i, s := range w.svcs {
		// Construction writes self at version 1 and nothing else.
		w.changedAt[i] = map[string]uint64{s.cfg.Self.Key(): 1}
		w.versions[i] = []uint64{0, 1}
		w.tables[i] = tableOf(s)
	}
	return w
}

// tableOf is the service's logical table, keyed by line.
func tableOf(s *Service) map[string]lineState {
	t := map[string]lineState{}
	s.VisitRecords(func(r Record) { t[r.Addr.Key()] = stateOf(r) })
	return t
}

// admit hands one record to service s through one of the three doors a
// record enters by, and remembers it for the order check.
func (w *writeWorld) admit(s *Service, r Record, door byte) {
	switch door % 3 {
	case 0:
		s.Apply(Update{Records: []Record{r}})
	case 1:
		s.HandleJoinRequest(JoinRequest{Joiner: r, Hops: 1})
	case 2:
		r = Record{Addr: r.Addr, Stamp: r.Stamp, Alive: false}
		s.HandleLeave(Leave{Addr: r.Addr, Stamp: r.Stamp})
	}
	w.fed = append(w.fed, r)
}

// exchange runs one digest exchange from x to y in one of three forms — the
// overlay form, the entries form the wire decodes to, a summary probe — and
// answers a "gossiper fresher" with y's own full digest, as a node does.
func exchange(x, y *Service, form byte) {
	var d Digest
	switch form % 3 {
	case 0:
		d = x.MakeDigest()
	case 1:
		d = entriesForm(x.MakeDigest())
	case 2:
		d = x.MakeSummaryDigest()
	}
	upd, fresher := y.HandleDigest(d)
	if upd != nil {
		x.Apply(*upd)
	}
	if fresher {
		if back, _ := x.HandleDigest(y.MakeDigest()); back != nil {
			y.Apply(*back)
		}
	}
}

// step runs one byte-chosen op.
func (w *writeWorld) step(kind, a, b byte) string {
	s := w.svcs[a%3]
	switch kind % 8 {
	case 0, 1: // a record for any line, self and strangers included
		line := w.space.AddressAt(int(a/3) % w.space.Capacity())
		r := Record{Addr: line, Sub: w.subs[(b>>3)%3], Alive: b&4 == 0}
		if cur, ok := s.Lookup(line); ok {
			r.Stamp = cur.Stamp + uint64(b%4) - 1 // below, at, or one or two above the held stamp
		} else {
			r.Stamp = 1 + uint64(b%3)
		}
		w.admit(s, r, b>>5)
		return fmt.Sprintf("%s admits %s#%d alive=%v door=%d", s.cfg.Self, r.Addr, r.Stamp, r.Alive, (b>>5)%3)
	case 2:
		s.Subscribe(w.subs[b%3])
		return fmt.Sprintf("%s subscribes", s.cfg.Self)
	case 3:
		s.BuildLeave()
		return fmt.Sprintf("%s leaves", s.cfg.Self)
	case 4:
		w.now = w.now.Add(time.Duration(b%4) * time.Second)
		return fmt.Sprintf("%s sweeps at %v: %v", s.cfg.Self, w.now.Unix(), s.SweepFailures())
	case 5:
		from := w.space.AddressAt(int(b) % w.space.Capacity())
		s.MarkHeardAt(from, w.now)
		return fmt.Sprintf("%s hears %s", s.cfg.Self, from)
	default:
		y := w.svcs[(a/3)%3]
		if y == s {
			y = w.svcs[(a+1)%3]
		}
		exchange(s, y, b)
		return fmt.Sprintf("digest %s → %s form %d", s.cfg.Self, y.cfg.Self, b%3)
	}
}

// observe records, for service i, which lines the last op changed.
func (w *writeWorld) observe(i int) {
	s := w.svcs[i]
	v := s.Version()
	now := tableOf(s)
	for key, st := range now {
		if was, ok := w.tables[i][key]; !ok || was != st {
			w.changedAt[i][key] = v
		}
	}
	w.tables[i] = now
	if w.versions[i][len(w.versions[i])-1] != v {
		w.versions[i] = append(w.versions[i], v)
	}
}

// checkDerived holds every field a line write maintains to a from-scratch
// derivation over the service's logical table: the roster hash, the alive
// count, the sorted alive-peer pool (listed and drawn by rank), the sorted
// immediate neighbors and, for every version in versions, ChangedSince.
func checkDerived(s *Service, changedAt map[string]uint64, versions []uint64) error {
	var table []Record
	s.VisitRecords(func(r Record) { table = append(table, r) })
	var hash uint64
	alive := 0
	var pool, nbrs []addr.Address
	prefix := s.cfg.Self.Prefix(s.cfg.Space.Depth())
	for i, r := range table {
		if i > 0 && !table[i-1].Addr.Less(r.Addr) {
			return fmt.Errorf("table out of address order at %s", r.Addr)
		}
		hash ^= recHash(r.Addr.Key(), r.Stamp, r.Alive)
		if !r.Alive {
			continue
		}
		alive++
		if r.Addr.Equal(s.cfg.Self) {
			continue
		}
		pool = append(pool, r.Addr)
		if r.Addr.HasPrefix(prefix) {
			nbrs = append(nbrs, r.Addr)
		}
	}
	if got := s.RosterHash(); got != hash {
		return fmt.Errorf("roster hash %x, derived %x", got, hash)
	}
	if got := s.Len(); got != alive {
		return fmt.Errorf("Len %d, derived %d", got, alive)
	}
	if got := s.ImmediateNeighbors(); !slices.EqualFunc(got, nbrs, addr.Address.Equal) {
		return fmt.Errorf("neighbors %v, derived %v", got, nbrs)
	}
	s.mu.RLock()
	var listed, drawn []addr.Address
	s.poolVisitLocked(func(a addr.Address) { listed = append(listed, a) })
	for j := 0; j < s.poolLenLocked(); j++ {
		drawn = append(drawn, s.poolAtLocked(j))
	}
	s.mu.RUnlock()
	if !slices.EqualFunc(listed, pool, addr.Address.Equal) || !slices.EqualFunc(drawn, pool, addr.Address.Equal) {
		return fmt.Errorf("pool listed %v, drawn by rank %v, derived %v", listed, drawn, pool)
	}
	for _, v := range versions {
		got, ok := s.ChangedSince(v)
		if !ok {
			return fmt.Errorf("ChangedSince(%d) no longer reaches back", v)
		}
		var want []Record
		for _, r := range table {
			if changedAt[r.Addr.Key()] > v {
				want = append(want, r)
			}
		}
		if !slices.EqualFunc(got, want, func(a, b Record) bool { return stateOf(a) == stateOf(b) }) {
			return fmt.Errorf("ChangedSince(%d) = %v, derived %v", v, got, want)
		}
	}
	return nil
}

// checkDigest holds the service's full digest — its memo, patched from the
// last one or built afresh — to the logical table, line for line.
func checkDigest(s *Service) error {
	var table []lineState
	s.VisitRecords(func(r Record) { table = append(table, lineState{key: r.Addr.Key(), stamp: r.Stamp, alive: r.Alive}) })
	var listed []lineState
	for e := range s.MakeDigest().Lines {
		listed = append(listed, lineState{key: e.Key, stamp: e.Stamp, alive: e.Alive})
	}
	if !slices.Equal(listed, table) {
		return fmt.Errorf("full digest lists %v, table holds %v", listed, table)
	}
	return nil
}

// maxLineWriteOps bounds the ops one FuzzMembershipLineWrites input runs.
const maxLineWriteOps = 256

// FuzzMembershipLineWrites drives byte-chosen line writes through every door
// a line is written by — records for any line, self and strangers included,
// through Apply, HandleJoinRequest and HandleLeave; Subscribe; BuildLeave;
// SweepFailures on a stepped clock; digest exchanges in all three forms — on
// three services over one small space. After every op, each service's
// derived state must equal a from-scratch derivation over its logical table
// (checkDerived), and after every third op its full digest must list that
// table (checkDigest): the digest memo is then patched across a few
// versions, and across whatever the ops' own exchanges built. Then the
// order check: two fresh services fed every admitted record for a line
// neither owns — one in the order admitted, one record at a time; the
// other reversed, in one batch — agree on every line's stamp and liveness,
// and on their hashes. Subscriptions are left out of that agreement: a tie
// at equal stamp and liveness keeps whichever subscription arrived first.
//
// An input runs at most maxLineWriteOps ops. The derivation checks every
// version seen so far after every op, so an input costs the square of its
// op count: uncapped, a 4 KB input ran past the fuzzer's 10 s hang limit.
func FuzzMembershipLineWrites(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 6, 2, 0, 6, 5, 0, 0, 5, 6, 3, 0})          // a peer bumped, then tombstoned at its stamp; self tombstoned; one digest
	f.Add([]byte{0, 18, 32, 0, 25, 65, 6, 3, 1, 7, 2, 0})      // strangers through the join and leave doors, then digests
	f.Add([]byte{2, 0, 1, 3, 1, 0, 6, 3, 0, 6, 1, 0, 2, 1, 2}) // subscribe, leave, exchange both ways, subscribe a dead line
	f.Add([]byte{4, 0, 0, 4, 0, 2, 5, 0, 1, 4, 0, 1, 6, 3, 0}) // sweeps on a stepped clock expel the silent neighbor only
	f.Add([]byte{7, 2, 0, 6, 7, 1, 0, 14, 5, 6, 5, 2})         // the lone service rebases through digests, then a summary probe
	f.Fuzz(func(t *testing.T, ops []byte) {
		w := newWriteWorld(t)
		for n := 0; len(ops) >= 3 && n < maxLineWriteOps; ops, n = ops[3:], n+1 {
			op := w.step(ops[0], ops[1], ops[2])
			for i, s := range w.svcs {
				w.observe(i)
				if err := checkDerived(s, w.changedAt[i], w.versions[i]); err != nil {
					t.Fatalf("after %s, %s: %v", op, s.cfg.Self, err)
				}
				if n%3 != 2 {
					continue
				}
				if err := checkDigest(s); err != nil {
					t.Fatalf("after %s, %s: %v", op, s.cfg.Self, err)
				}
			}
		}

		fresh := newWriteWorld(t)
		p, q := fresh.svcs[0], fresh.svcs[1]
		var feed []Record
		for _, r := range w.fed {
			if !r.Addr.Equal(p.cfg.Self) && !r.Addr.Equal(q.cfg.Self) {
				feed = append(feed, r)
			}
		}
		for _, r := range feed {
			p.Apply(Update{Records: []Record{r}})
		}
		reversed := slices.Clone(feed)
		slices.Reverse(reversed)
		q.Apply(Update{Records: reversed})
		for _, s := range []*Service{p, q} {
			if err := checkDerived(s, nil, nil); err != nil {
				t.Fatalf("order check, %s: %v", s.cfg.Self, err)
			}
		}
		lines := func(s *Service) (out []lineState) {
			s.VisitRecords(func(r Record) { out = append(out, lineState{key: r.Addr.Key(), stamp: r.Stamp, alive: r.Alive}) })
			return out
		}
		if a, b := lines(p), lines(q); !slices.Equal(a, b) || p.RosterHash() != q.RosterHash() {
			t.Fatalf("one multiset of records in two orders:\n%v\n%v", a, b)
		}
	})
}
