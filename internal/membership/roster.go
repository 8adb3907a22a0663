// One table, two layers: every Service is a Roster plus an overlay.
//
// The paper's membership state is one timestamped table per process. Here
// that table is an immutable address-sorted Roster — the base, which a
// harness fleet bootstrapped from one roster shares, so co-hosting tens of
// thousands of processes costs one copy of the lines — plus an overlay of the
// lines this service holds differently, keyed by base position. A service
// that starts alone (New) is the same thing over a one-line roster of its own
// record.
//
// A record for an address outside the base is a stranger. The batch that
// carries strangers rebases the service once: the new base is the current
// logical table plus the strangers, the overlay's records move to their new
// positions as they are, and every base-dependent field (alive count, roster
// hash, pool exclusion set, neighbor cache) is derived afresh by the one
// function construction also calls.
//
// The alive-peer pool is where identity is subtle: peer draws must consume the
// rng and pick addresses exactly as sampling a sorted list of the live peers
// would, or seeded traces move. The pool is the sorted base minus a (small)
// sorted exclusion set of base positions — self plus every line currently
// dead — and a drawn rank is mapped through the exclusion set, so the logical
// sequence is that sorted list whatever route built the table.

package membership

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"pmcast/internal/addr"
)

// Roster is an immutable table of records sorted by address, with the
// precomputed index, order-independent hash and alive count every service
// adopting it starts from. Build it once, hand it to every NewWithRoster.
type Roster struct {
	// Records is sorted by address and must not be mutated after NewRoster.
	Records []Record
	index   map[string]int32
	hash    uint64
	alive   int
	// linesSize is the wire size of the roster listed as digest lines, the
	// term an overlay-form digest is sized from without walking the roster.
	linesSize int
}

// NewRoster builds a shared roster from the given records (copied, sorted
// by address). Duplicate addresses are an error.
func NewRoster(recs []Record) (*Roster, error) {
	sorted := slices.Clone(recs)
	slices.SortFunc(sorted, func(a, b Record) int { return a.Addr.Compare(b.Addr) })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Addr.Equal(sorted[i-1].Addr) {
			return nil, fmt.Errorf("membership: duplicate roster address %s", sorted[i].Addr)
		}
	}
	return newRoster(sorted), nil
}

// newRoster indexes records already sorted by distinct address, taking
// ownership of the slice.
func newRoster(sorted []Record) *Roster {
	r := &Roster{Records: sorted, index: make(map[string]int32, len(sorted))}
	for i := range r.Records {
		rec := &r.Records[i]
		key := rec.Addr.Key()
		r.index[key] = int32(i)
		r.hash ^= recHash(key, rec.Stamp, rec.Alive)
		r.linesSize += lineWireSize(key, rec.Stamp)
		if rec.Alive {
			r.alive++
		}
	}
	return r
}

// prefixRange returns the half-open index range [lo, hi) of roster records
// whose addresses carry the prefix. Records are address-sorted, so the
// range is contiguous and found by binary search.
func (r *Roster) prefixRange(p addr.Prefix) (lo, hi int) {
	n := len(r.Records)
	lo = sort.Search(n, func(i int) bool { return !addrBeforePrefix(r.Records[i].Addr, p) })
	hi = lo + sort.Search(n-lo, func(i int) bool { return !r.Records[lo+i].Addr.HasPrefix(p) })
	return lo, hi
}

// addrBeforePrefix reports whether a sorts strictly before every address
// carrying prefix p (digit-lexicographic order).
func addrBeforePrefix(a addr.Address, p addr.Prefix) bool {
	for i := 1; i <= p.Len(); i++ {
		if d, pd := a.Digit(i), p.Digit(i); d != pd {
			return d < pd
		}
	}
	return false
}

// NewWithRoster builds a service over a roster (self's own line included —
// the roster carries each process's subscription). The service keeps only an
// overlay of records that later diverge from the base.
func NewWithRoster(cfg Config, base *Roster) (*Service, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	selfIdx, ok := base.index[cfg.Self.Key()]
	if !ok {
		return nil, fmt.Errorf("%w: self %s not in roster", ErrBadConfig, cfg.Self)
	}
	s := &Service{
		cfg:        cfg,
		now:        now,
		lastHeard:  make(map[string]time.Time),
		selfPrefix: cfg.Self.Prefix(cfg.Space.Depth()),
		over:       make(map[int32]*Record),
	}
	s.adoptLocked(base)
	// Self lives in the overlay from the start, written at version 1 with
	// its own value.
	s.writeLocked(selfIdx, base.Records[selfIdx])
	s.version = 1
	return s, nil
}

// adoptLocked makes base the service's base and derives every field that
// depends on it: the alive count, the roster hash, the pool exclusion set
// (self plus every dead line, ascending) and the neighbor cache (the base's
// contiguous subgroup range, alive, minus self). The overlay must shadow
// base lines with identical values only, as it does at construction and
// across a rebase.
func (s *Service) adoptLocked(base *Roster) {
	s.base = base
	s.alive, s.hash = base.alive, base.hash
	selfIdx := base.index[s.cfg.Self.Key()]
	s.poolGone = s.poolGone[:0]
	for i := range base.Records {
		if !base.Records[i].Alive || int32(i) == selfIdx {
			s.poolGone = append(s.poolGone, int32(i))
		}
	}
	s.neighborCache = s.neighborCache[:0]
	lo, hi := base.prefixRange(s.selfPrefix)
	for i := lo; i < hi; i++ {
		if rec := &base.Records[i]; rec.Alive && int32(i) != selfIdx {
			s.neighborCache = append(s.neighborCache, rec.Addr)
		}
	}
}

// rebaseLocked admits a batch's strangers — records for addresses outside
// the base — by building the new base once: the current logical table merged
// with the strangers, a stranger listed twice merging as apply merges. The
// overlay's records move to their new positions as they are and each
// stranger gets a record of its own, logged against the version the batch
// lands on, so the changelog keeps one pointer per line. It returns how many
// stranger records changed state, counted as applying them one by one would.
func (s *Service) rebaseLocked(strangers []Record) int {
	slices.SortStableFunc(strangers, func(a, b Record) int { return a.Addr.Compare(b.Addr) })
	changed := 0
	merged := strangers[:0]
	for _, r := range strangers {
		n := len(merged)
		if n == 0 || !merged[n-1].Addr.Equal(r.Addr) {
			merged = append(merged, r)
			changed++
			continue
		}
		if next, ok := merge(merged[n-1], r); ok {
			merged[n-1] = next
			changed++
		}
	}

	old := s.base
	recs := make([]Record, 0, len(old.Records)+len(merged))
	over := make(map[int32]*Record, len(s.over)+len(merged))
	owned := slices.Clone(merged)
	j := 0
	for i := range old.Records {
		r, mine := s.over[int32(i)]
		if !mine {
			r = &old.Records[i]
		}
		for ; j < len(owned) && owned[j].Addr.Less(r.Addr); j++ {
			over[int32(len(recs))] = &owned[j]
			recs = append(recs, owned[j])
		}
		if mine {
			over[int32(len(recs))] = r
		}
		recs = append(recs, *r)
	}
	for ; j < len(owned); j++ {
		over[int32(len(recs))] = &owned[j]
		recs = append(recs, owned[j])
	}
	for k := range owned {
		s.logChangeLocked(s.version+1, &owned[k])
	}
	s.over = over
	s.adoptLocked(newRoster(recs))
	return changed
}

// lineLocked reads base line i: the overlay's record when it shadows the
// line, else the base's. The result may be a shared base line — write
// through writeLocked only.
func (s *Service) lineLocked(i int32) *Record {
	if r, ok := s.over[i]; ok {
		return r
	}
	return &s.base.Records[i]
}

// peekLocked resolves a record for reading and its base position: the key
// is hashed once, into the base's index.
func (s *Service) peekLocked(key string) (*Record, int32, bool) {
	i, ok := s.base.index[key]
	if !ok {
		return nil, 0, false
	}
	return s.lineLocked(i), i, true
}

// peekNextLocked is peekLocked for a caller walking keys in the order digests
// list them — base lines by rising position. hint is the position after the
// previous line found (-1: none): when the key is the base line there, which
// for a key cut from the shared roster is a pointer compare, it is not hashed
// at all. The second result is the next call's hint.
func (s *Service) peekNextLocked(key string, hint int32) (*Record, int32, bool) {
	i := hint
	if i < 0 || int(i) >= len(s.base.Records) || s.base.Records[i].Addr.Key() != key {
		var ok bool
		if i, ok = s.base.index[key]; !ok {
			return nil, hint, false
		}
	}
	return s.lineLocked(i), i + 1, true
}

// visitLocked calls fn for every logical record (overlay shadows base) in
// address order.
func (s *Service) visitLocked(fn func(key string, r *Record)) {
	for i := range s.base.Records {
		r := s.lineLocked(int32(i))
		fn(r.Addr.Key(), r)
	}
}

// poolLenLocked is the alive-peer pool size.
func (s *Service) poolLenLocked() int {
	return len(s.base.Records) - len(s.poolGone)
}

// poolAtLocked returns the j-th pool address in sorted order: the base
// position whose rank among non-excluded lines is j, found by a fixpoint
// over the sorted exclusion set (|gone| is small — self plus current dead).
func (s *Service) poolAtLocked(j int) addr.Address {
	m := j
	for {
		k := sort.Search(len(s.poolGone), func(i int) bool { return s.poolGone[i] > int32(m) })
		if next := j + k; next != m {
			m = next
			continue
		}
		return s.base.Records[m].Addr
	}
}

// poolVisitLocked walks the pool in sorted order.
func (s *Service) poolVisitLocked(fn func(addr.Address)) {
	g := 0
	for i := range s.base.Records {
		if g < len(s.poolGone) && s.poolGone[g] == int32(i) {
			g++
			continue
		}
		fn(s.base.Records[i].Addr)
	}
}
