// Shared-roster membership: the copy-on-write backing that lets a harness
// co-host tens of thousands of processes over one bootstrap roster.
//
// A classic Service holds the whole record table per process — O(n) lines
// each, O(n²) for a co-hosted fleet, which caps campaigns near a thousand
// processes. In roster mode every Service of a bootstrap fleet shares one
// immutable sorted Roster and keeps only an overlay: the records IT has
// seen change. All observable behavior — record lookups, digests, roster
// hash, and crucially the order and arity of random peer draws — is
// byte-identical to a classic service that applied the same roster line by
// line, which the pinned golden traces verify continuously (the oracle
// bootstrap always runs through this path).
//
// The alive-peer pool is where identity is subtle: classic sampling draws
// from a sorted materialized peer cache. Roster mode draws from the same
// logical sequence — the sorted base minus a (small) sorted exclusion set of
// base positions (self plus every line currently dead) — by mapping the
// drawn rank through the exclusion set, so rng consumption and the drawn
// addresses match the classic path exactly. A record for an address outside
// the base (a genuinely new joiner) falls back to full materialization for
// that one service.

package membership

import (
	"fmt"
	"sort"
	"time"

	"pmcast/internal/addr"
)

// Roster is an immutable bootstrap roster shared by many services: records
// sorted by address, with the precomputed index, order-independent hash and
// alive count every adopting service starts from. Build it once, hand it to
// every NewWithRoster.
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
	r := &Roster{
		Records: make([]Record, len(recs)),
		index:   make(map[string]int32, len(recs)),
	}
	copy(r.Records, recs)
	sort.Slice(r.Records, func(i, j int) bool { return r.Records[i].Addr.Less(r.Records[j].Addr) })
	for i := range r.Records {
		rec := &r.Records[i]
		key := rec.Addr.Key()
		if _, dup := r.index[key]; dup {
			return nil, fmt.Errorf("membership: duplicate roster address %s", rec.Addr)
		}
		r.index[key] = int32(i)
		r.hash ^= recHash(key, rec.Stamp, rec.Alive)
		r.linesSize += lineWireSize(key, rec.Stamp)
		if rec.Alive {
			r.alive++
		}
	}
	return r, nil
}

// Len returns the number of roster lines.
func (r *Roster) Len() int { return len(r.Records) }

// lookup returns the base record for a key, if present.
func (r *Roster) lookup(key string) (*Record, int32, bool) {
	if r == nil {
		return nil, 0, false
	}
	i, ok := r.index[key]
	if !ok {
		return nil, 0, false
	}
	return &r.Records[i], i, true
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

// NewWithRoster builds a service backed by a shared roster, equivalent to a
// classic service that applied every roster line (self's own line included —
// the roster carries each process's subscription). The service keeps only
// an overlay of records that later diverge from the base.
func NewWithRoster(cfg Config, base *Roster) (*Service, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	if cfg.SuspicionSweeps < 1 {
		cfg.SuspicionSweeps = 1
	}
	selfKey := cfg.Self.Key()
	selfRec, selfIdx, ok := base.lookup(selfKey)
	if !ok {
		return nil, fmt.Errorf("%w: self %s not in roster", ErrBadConfig, cfg.Self)
	}
	s := &Service{
		cfg:        cfg,
		now:        now,
		over:       make(map[int32]*Record, 4),
		lastHeard:  make(map[string]time.Time),
		suspicion:  make(map[string]int),
		selfPrefix: cfg.Self.Prefix(cfg.Space.Depth()),
		base:       base,
	}
	// Self lives in the overlay from the start: subscribe/leave bump its
	// stamp, and overlay-shadowing with an identical value keeps the
	// incremental hash exact.
	selfCopy := *selfRec
	s.over[selfIdx] = &selfCopy
	s.alive = base.alive
	s.hash = base.hash
	s.version = 1
	s.changelog = append(s.changelog, changeEntry{version: 1, rec: &selfCopy})
	// The pool exclusion set: self plus every base line that is not alive.
	s.poolGone = append(s.poolGone, selfIdx)
	for i := range base.Records {
		if !base.Records[i].Alive && int32(i) != selfIdx {
			s.poolGone = insortIdx(s.poolGone, int32(i))
		}
	}
	// Immediate neighbors: the base's contiguous subgroup range, minus self.
	lo, hi := base.prefixRange(s.selfPrefix)
	for i := lo; i < hi; i++ {
		rec := &base.Records[i]
		if rec.Alive && int32(i) != selfIdx {
			s.neighborCache = append(s.neighborCache, rec.Addr)
		}
	}
	return s, nil
}

// insortIdx inserts v into the sorted index list (no-op if present).
func insortIdx(list []int32, v int32) []int32 {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= v })
	if i < len(list) && list[i] == v {
		return list
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = v
	return list
}

// removeIdx deletes v from the sorted index list (no-op if absent).
func removeIdx(list []int32, v int32) []int32 {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= v })
	if i == len(list) || list[i] != v {
		return list
	}
	return append(list[:i], list[i+1:]...)
}

// recordCountLocked is the logical size of the record table. While the
// base is live the overlay only ever shadows base lines (a record for any
// new address triggers materialization first), so the base length is exact.
func (s *Service) recordCountLocked() int {
	if s.base == nil {
		return len(s.records)
	}
	return len(s.base.Records)
}

// peekLocked resolves a record for reading: the key is hashed once, to the
// classic table's record or to the base position the overlay is keyed by.
// The result may be a shared base line — mutate through mutableLocked only.
func (s *Service) peekLocked(key string) (*Record, bool) {
	r, _, ok := s.peekNextLocked(key, -1)
	return r, ok
}

// peekNextLocked is peekLocked for a caller walking keys in the order digests
// list them — base lines by rising position. hint is the position after the
// previous line found (-1: none): when the key is the base line there, which
// for a key cut from the shared roster is a pointer compare, it is not hashed
// at all. The second result is the next call's hint.
func (s *Service) peekNextLocked(key string, hint int32) (*Record, int32, bool) {
	if s.base == nil {
		r, ok := s.records[key]
		return r, -1, ok
	}
	i := hint
	if i < 0 || int(i) >= len(s.base.Records) || s.base.Records[i].Addr.Key() != key {
		var ok bool
		if i, ok = s.base.index[key]; !ok {
			return nil, hint, false
		}
	}
	if r, ok := s.over[i]; ok {
		return r, i + 1, true
	}
	return &s.base.Records[i], i + 1, true
}

// mutableLocked returns the service's own record for the key, copying the
// base line into the overlay on first mutation. Nil when the key is unknown.
func (s *Service) mutableLocked(key string) *Record {
	if s.base == nil {
		return s.records[key]
	}
	i, ok := s.base.index[key]
	if !ok {
		return nil
	}
	r, ok := s.over[i]
	if !ok {
		cp := s.base.Records[i]
		r = &cp
		s.over[i] = r
	}
	return r
}

// visitLocked calls fn for every logical record (overlay shadows base) in
// unspecified order, mirroring classic map iteration.
func (s *Service) visitLocked(fn func(key string, r *Record)) {
	if s.base == nil {
		for k, r := range s.records {
			fn(k, r)
		}
		return
	}
	for _, r := range s.over {
		fn(r.Addr.Key(), r)
	}
	for i := range s.base.Records {
		if _, shadowed := s.over[int32(i)]; shadowed {
			continue
		}
		rec := &s.base.Records[i]
		fn(rec.Addr.Key(), rec)
	}
}

// poolLenLocked is the alive-peer pool size (classic: the peer cache).
func (s *Service) poolLenLocked() int {
	if s.base == nil {
		return len(s.peerCache)
	}
	return len(s.base.Records) - len(s.poolGone)
}

// poolAtLocked returns the j-th pool address in sorted order: the base
// position whose rank among non-excluded lines is j, found by a fixpoint
// over the sorted exclusion set (|gone| is small — self plus current dead).
func (s *Service) poolAtLocked(j int) addr.Address {
	if s.base == nil {
		return s.peerCache[j]
	}
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
	if s.base == nil {
		for _, a := range s.peerCache {
			fn(a)
		}
		return
	}
	g := 0
	for i := range s.base.Records {
		if g < len(s.poolGone) && s.poolGone[g] == int32(i) {
			g++
			continue
		}
		fn(s.base.Records[i].Addr)
	}
}

// materializeLocked abandons the shared base for this service: every base
// line is copied into the overlay and the classic peer cache is built, so
// all subsequent operations run the classic path. Triggered when a record
// outside the base appears (a genuinely new joiner) — exceptional, and the
// sampling sequence is unchanged because the materialized pool is exactly
// the logical pool.
func (s *Service) materializeLocked() {
	if s.base == nil {
		return
	}
	s.records = make(map[string]*Record, len(s.base.Records))
	for i := range s.base.Records {
		r, shadowed := s.over[int32(i)]
		if !shadowed {
			cp := s.base.Records[i]
			r = &cp
		}
		s.records[r.Addr.Key()] = r
	}
	s.base = nil
	s.over = nil
	s.poolGone = nil
	// The memoized digest is the overlay form of a service that no longer
	// has an overlay.
	s.digest, s.digestVersion = Digest{}, 0
	s.peerCache = s.peerCache[:0]
	selfKey := s.cfg.Self.Key()
	for key, r := range s.records {
		if r.Alive && key != selfKey {
			s.peerCache = insortAddr(s.peerCache, r.Addr)
		}
	}
}
