// Churn properties: expel→rejoin sequences keep the view version monotone,
// never resurrect an expelled peer without a strictly fresher stamp, and
// keep the incrementally-maintained aggregates (alive count, sorted target
// caches, roster hash) consistent with the record table they summarize.
package membership

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/interest"
)

// churnService builds a service with an adjustable clock.
func churnService(t *testing.T, self string, now *time.Time) *Service {
	t.Helper()
	s, err := New(Config{
		Self:         addr.MustParse(self),
		Space:        addr.MustRegular(4, 2),
		R:            2,
		SuspectAfter: 100 * time.Millisecond,
		Now:          func() time.Time { return *now },
	}, interest.NewSubscription())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestExpelRejoinTable is the table-driven contract of one expel→rejoin
// cycle: which post-expulsion records may bring a peer back.
func TestExpelRejoinTable(t *testing.T) {
	peer := addr.New(0, 1)
	cases := []struct {
		name string
		// rejoin is applied after the peer was expelled (tombstone stamp 2).
		rejoin    Record
		wantAlive bool
	}{
		{
			name:      "stale original record does not resurrect",
			rejoin:    Record{Addr: peer, Stamp: 1, Alive: true},
			wantAlive: false,
		},
		{
			name:      "equal-stamp alive does not beat the tombstone",
			rejoin:    Record{Addr: peer, Stamp: 2, Alive: true},
			wantAlive: false,
		},
		{
			name:      "strictly fresher stamp rejoins",
			rejoin:    Record{Addr: peer, Stamp: 3, Alive: true},
			wantAlive: true,
		},
		{
			name:      "fresher tombstone stays dead",
			rejoin:    Record{Addr: peer, Stamp: 5, Alive: false},
			wantAlive: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(0, 0)
			s := churnService(t, "0.0", &now)
			s.Apply(Update{Records: []Record{{Addr: peer, Stamp: 1, Alive: true}}})

			// Start the silence timer, then cross the deadline and expel.
			s.MarkHeardAt(peer, now)
			now = now.Add(200 * time.Millisecond)
			expelled := s.SweepFailures()
			if len(expelled) != 1 || !expelled[0].Equal(peer) {
				t.Fatalf("expelled %v, want [%s]", expelled, peer)
			}
			rec, _ := s.Lookup(peer)
			if rec.Alive || rec.Stamp != 2 {
				t.Fatalf("post-expel record %+v, want dead stamp 2", rec)
			}
			preVersion := s.Version()

			s.Apply(Update{Records: []Record{tc.rejoin}})
			rec, _ = s.Lookup(peer)
			if rec.Alive != tc.wantAlive {
				t.Errorf("after rejoin record %+v: alive = %v, want %v", tc.rejoin, rec.Alive, tc.wantAlive)
			}
			if s.Version() < preVersion {
				t.Errorf("version moved backwards: %d -> %d", preVersion, s.Version())
			}
		})
	}
}

// TestChurnProperties drives a long randomized expel/rejoin/leave/flux
// sequence and checks the invariants after every step.
func TestChurnProperties(t *testing.T) {
	now := time.Unix(0, 0)
	s := churnService(t, "0.0", &now)
	space := addr.MustRegular(4, 2)
	rng := rand.New(rand.NewSource(99))

	// highestStamp tracks, per peer, the freshest stamp this service has
	// been shown; an alive record must always be explainable by an applied
	// alive record at its exact stamp (no spontaneous resurrection).
	lastVersion := s.Version()

	check := func(step int, op string) {
		t.Helper()
		if v := s.Version(); v < lastVersion {
			t.Fatalf("step %d (%s): version %d < %d — not monotone", step, op, v, lastVersion)
		} else {
			lastVersion = v
		}
		// Recount the aggregates from scratch and compare with the
		// incrementally maintained ones.
		alive := 0
		hash := uint64(0)
		s.VisitRecords(func(r Record) {
			if r.Alive {
				alive++
			}
			hash ^= recHash(r.Addr.Key(), r.Stamp, r.Alive)
		})
		if got := s.Len(); got != alive {
			t.Fatalf("step %d (%s): Len() = %d, recount = %d", step, op, got, alive)
		}
		if got := s.RosterHash(); got != hash {
			t.Fatalf("step %d (%s): roster hash drifted", step, op)
		}
		// Target caches: alive, non-self, neighbors sorted and with the prefix.
		peers := s.DigestTargets(rand.New(rand.NewSource(1)), 1<<30)
		seen := map[string]bool{}
		for _, p := range peers {
			rec, ok := s.Lookup(p)
			if !ok || !rec.Alive {
				t.Fatalf("step %d (%s): target %s is not an alive record", step, op, p)
			}
			if p.Equal(s.Self()) {
				t.Fatalf("step %d (%s): self targeted", step, op)
			}
			if seen[p.Key()] {
				t.Fatalf("step %d (%s): duplicate target %s", step, op, p)
			}
			seen[p.Key()] = true
		}
		if want := alive - 1; len(peers) != want {
			t.Fatalf("step %d (%s): %d targets, want %d alive peers", step, op, len(peers), want)
		}
		nbrs := s.ImmediateNeighbors()
		prefix := s.Self().Prefix(space.Depth())
		for i, nb := range nbrs {
			if i > 0 && !nbrs[i-1].Less(nb) {
				t.Fatalf("step %d (%s): neighbors unsorted: %v", step, op, nbrs)
			}
			if !nb.HasPrefix(prefix) {
				t.Fatalf("step %d (%s): %s is no immediate neighbor", step, op, nb)
			}
		}
	}

	stamps := map[string]uint64{}
	expelledAt := map[string]uint64{} // key → tombstone stamp at expulsion
	for step := 0; step < 2000; step++ {
		i := 1 + rng.Intn(space.Capacity()-1)
		peer := space.AddressAt(i)
		key := peer.Key()
		var op string
		switch rng.Intn(6) {
		case 0, 1: // freshen or introduce the peer
			stamps[key]++
			if stamps[key] > expelledAt[key] {
				delete(expelledAt, key)
			}
			op = fmt.Sprintf("apply alive %s#%d", key, stamps[key])
			s.Apply(Update{Records: []Record{{
				Addr:  peer,
				Stamp: stamps[key],
				Alive: true,
				Sub:   interest.NewSubscription().Where("b", interest.EqInt(int64(rng.Intn(3)))),
			}}})
		case 2: // replay a stale or current record (must never resurrect)
			st := uint64(1 + rng.Intn(int(stamps[key]+1)))
			op = fmt.Sprintf("replay %s#%d", key, st)
			s.Apply(Update{Records: []Record{{Addr: peer, Stamp: st, Alive: true}}})
		case 3: // explicit leave at the next stamp
			stamps[key]++
			expelledAt[key] = stamps[key]
			op = fmt.Sprintf("leave %s#%d", key, stamps[key])
			s.HandleLeave(Leave{Addr: peer, Stamp: stamps[key]})
		case 4: // silence: advance past the deadline and sweep
			now = now.Add(60 * time.Millisecond)
			op = "sweep"
			for _, ex := range s.SweepFailures() {
				k := ex.Key()
				stamps[k]++ // expulsion bumps the line stamp
				expelledAt[k] = stamps[k]
			}
		case 5: // contact from a random peer resets its silence timer
			op = "heard " + key
			s.MarkHeardAt(peer, now)
		}
		check(step, op)

		// The resurrection property: any alive record must carry a stamp
		// strictly above the latest expulsion this service witnessed.
		s.VisitRecords(func(r Record) {
			if ex, was := expelledAt[r.Addr.Key()]; was && r.Alive && r.Stamp <= ex {
				t.Fatalf("step %d (%s): %s resurrected at stamp %d ≤ expulsion stamp %d",
					step, op, r.Addr, r.Stamp, ex)
			}
		})
	}
}
