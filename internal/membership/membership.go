// Package membership implements pmcast's loosely coordinated membership
// management (paper Section 2.3): timestamped member records exchanged by
// gossip pull, a recursive join protocol bootstrapped through one known
// contact, explicit leaves, and failure detection based on the last contact
// time of immediate neighbors.
//
// The service is a synchronous, thread-safe state machine over protocol
// messages; the runtime node (internal/node) wires it to the transport and
// timers. Records carry per-line timestamps exactly as in the paper: "every
// line in every table has an associated timestamp, representing the last
// time the corresponding line was updated", and a receiver of a digest
// "updates the gossiper for all lines in which the gossiper's timestamps are
// smaller" (gossip pull).
package membership

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/binenc"
	"pmcast/internal/interest"
)

// Errors reported by the service.
var (
	ErrBadConfig = errors.New("membership: invalid configuration")
)

// Record is one membership line: a process, its interests, a logical
// timestamp, and liveness. Dead records are tombstones that must keep
// propagating so removals win over stale copies.
type Record struct {
	Addr  addr.Address
	Sub   interest.Subscription
	Stamp uint64
	Alive bool
}

// DigestEntry summarizes one record for anti-entropy comparison. Liveness
// rides along because stamps alone cannot express equal-stamp tombstone
// precedence: two peers holding (k, alive) and (k, dead) for the same line
// would otherwise disagree forever — visibly so, since the roster hash
// covers liveness and every probe between them would escalate to a full
// digest that transfers nothing.
type DigestEntry struct {
	Key   string
	Stamp uint64
	Alive bool
}

// Digest is the gossip-pull probe. Hash and Count summarize the sender's
// whole roster (incrementally maintained, order-independent); a digest
// without lines is a summary probe — the steady-state form, costing O(1)
// to build and compare. Converged peers exchange only probes; a mismatch
// escalates to full (line, timestamp) digests via the push-pull reply, so
// line-level comparison is paid exactly when states actually diverge.
//
// A full digest lists its lines in one of two forms. The overlay form is
// what every service builds, because it is what a service is — its base
// roster plus the lines it holds differently — so building it costs the
// overlay, not the roster, and a receiver over the same base compares
// overlays only (see HandleDigest). The entries form is the list itself:
// only what the wire decodes to. Read the lines through Len and Lines, which
// hide the form. Either form is immutable once handed out: a digest in
// flight is never disturbed by its sender's next version.
type Digest struct {
	From  addr.Address
	Hash  uint64
	Count int
	// Entries is the entries form, which only the wire decoder builds; nil in
	// a probe and in the overlay form.
	Entries []DigestEntry
	// base and over are the overlay form: every line of base, except that a
	// line listed in over (sorted by base position) carries that stamp and
	// liveness instead of the base record's.
	base *Roster
	over []overLine
}

// overLine is one overlay line of an overlay-form digest: the stamp and
// liveness its sender holds for the base line at position idx.
type overLine struct {
	idx   int32
	alive bool
	stamp uint64
}

// Len returns the number of lines the digest lists; zero for a summary probe.
func (d Digest) Len() int {
	if d.base != nil {
		return len(d.base.Records)
	}
	return len(d.Entries)
}

// Lines yields every line of the digest, whichever its form (use as
// `for e := range d.Lines`). The overlay form lists base lines by rising
// position, the order HandleDigest's line-by-line walk is cheapest in.
func (d Digest) Lines(yield func(DigestEntry) bool) {
	if d.base == nil {
		for _, e := range d.Entries {
			if !yield(e) {
				return
			}
		}
		return
	}
	o := 0
	for i := range d.base.Records {
		r := &d.base.Records[i]
		e := DigestEntry{Key: r.Addr.Key(), Stamp: r.Stamp, Alive: r.Alive}
		if o < len(d.over) && d.over[o].idx == int32(i) {
			e.Stamp, e.Alive = d.over[o].stamp, d.over[o].alive
			o++
		}
		if !yield(e) {
			return
		}
	}
}

// lineWireSize is the size of one digest line as package wire frames it: the
// key as a length-prefixed string, the stamp as a varint, one liveness byte.
func lineWireSize(key string, stamp uint64) int {
	return binenc.StringLen(key) + binenc.UvarintLen(stamp) + 1
}

// LinesWireSize returns the encoded size of the digest's lines without
// listing them. The entries form is walked. The overlay form costs its
// overlay however long the roster: the base's total was summed once in
// NewRoster, and an overlay line differs from the base line it replaces only
// in how many bytes its stamp's varint takes.
func (d Digest) LinesWireSize() int {
	if d.base == nil {
		n := 0
		for i := range d.Entries {
			n += lineWireSize(d.Entries[i].Key, d.Entries[i].Stamp)
		}
		return n
	}
	n := d.base.linesSize
	for _, l := range d.over {
		n += binenc.UvarintLen(l.stamp) - binenc.UvarintLen(d.base.Records[l.idx].Stamp)
	}
	return n
}

// Update carries full records; sent by a digest receiver for every line in
// which the gossiper was stale (the pull), and as join replies.
type Update struct {
	From    addr.Address
	Records []Record
}

// JoinRequest announces a joiner towards its future immediate neighbors.
type JoinRequest struct {
	Joiner Record
	// Hops bounds forwarding (the recursive contact chain of Section 2.3).
	Hops int
}

// Leave is the explicit departure notification sent to close neighbors.
type Leave struct {
	Addr  addr.Address
	Stamp uint64
}

// Heartbeat is the subgroup liveness beacon: a contentless "I am alive"
// sent to every immediate neighbor each membership interval. The paper's
// failure detector is subgroup-local ("every process keeps track of the
// last time it was contacted" by its immediate neighbors); at fleet scale,
// digest fan-out alone cannot keep those contact times fresh — the expected
// silence gap of uniform fan-out grows with n — so the beacon carries the
// detector while digests carry anti-entropy. Any received message refreshes
// the contact time; the heartbeat merely guarantees a bounded refresh rate. It
// carries nothing, not even a sender: the receiver records the envelope's,
// never one a payload claims.
type Heartbeat struct{}

// Config parameterizes the service.
type Config struct {
	// Self is the owning process.
	Self addr.Address
	// Space bounds the address space (tree depth d and arities).
	Space addr.Space
	// R is the tree's redundancy factor. The service reads nothing of it:
	// New and NewWithRoster only reject R < 1. It remains only because
	// bench/layers.go and internal/node set it.
	R int
	// SuspectAfter is how long an immediate neighbor may stay silent before
	// the failure detector declares it crashed.
	SuspectAfter time.Duration
	// Now tells time (injectable for tests); nil means time.Now.
	Now func() time.Time
}

func (c Config) validate() error {
	if c.Self.IsZero() {
		return fmt.Errorf("%w: zero self address", ErrBadConfig)
	}
	if c.Space.Depth() == 0 {
		return fmt.Errorf("%w: zero space", ErrBadConfig)
	}
	if err := c.Space.Validate(c.Self); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if c.R < 1 {
		return fmt.Errorf("%w: R=%d", ErrBadConfig, c.R)
	}
	return nil
}

// Service is one process's membership state. All methods are safe for
// concurrent use.
type Service struct {
	cfg Config
	now func() time.Time

	mu sync.RWMutex
	// lastHeard is the failure detector's state, kept for immediate
	// neighbors only (see MarkHeardAt): an address's prefix never changes,
	// so nothing else is ever read back.
	lastHeard map[string]time.Time
	version   uint64
	alive     int    // count of alive records, maintained on every transition
	hash      uint64 // order-independent roster hash, maintained likewise

	// The record table is base, an immutable roster (shared by a fleet
	// bootstrapped from one, private after a rebase — see roster.go), plus
	// over, the lines this service holds differently, keyed by base position
	// (an overlay only ever shadows base lines), so a lookup hashes its key
	// once — into base.index — and reaches the overlay by integer. poolGone
	// lists the base positions excluded from the alive-peer pool — self plus
	// every currently dead line — sorted ascending: the pool seen through
	// poolAtLocked is the sorted list of live peers.
	base     *Roster
	over     map[int32]*Record
	poolGone []int32

	// neighborCache is the sorted immediate-neighbor list, maintained
	// incrementally on every liveness transition like poolGone: digest
	// fan-out and heartbeats read both every membership interval on every
	// node, and rebuilding them per tick dominates fleet-scale campaigns.
	selfPrefix    addr.Prefix
	neighborCache []addr.Address

	// changelog records the lines touched by each version bump so tree
	// maintenance can fold deltas without rescanning the whole table; when
	// it overflows, readers fall back to a full scan.
	changelog    []changeEntry
	changelogMin uint64 // changes with version > changelogMin are complete

	// digest memoizes the full digest per version: divergence episodes
	// trigger a push-pull reply per mismatched probe. Its line list is built
	// fresh for every version and never written again, because digests
	// handed out earlier still point at the previous one.
	digest        Digest
	digestVersion uint64 // 0 = invalid (version is always ≥ 1)
}

// changeEntry is one changelog line: the record touched when the service
// moved to the given version. A line that has changed owns its *Record for
// the life of the service — the overlay mutates records in place, and a
// rebase carries overlay records over as they are — so the pointer both
// names the line and reads its current state.
type changeEntry struct {
	version uint64
	rec     *Record
}

// changelogCap bounds the changelog; overflow truncates the oldest half and
// moves changelogMin forward.
const changelogCap = 8192

// New builds a service that knows only itself: NewWithRoster over a
// one-line roster holding the process's own record. Whatever it learns
// later rebases it (see roster.go).
func New(cfg Config, selfSub interest.Subscription) (*Service, error) {
	return NewWithRoster(cfg, newRoster([]Record{{Addr: cfg.Self, Sub: selfSub, Stamp: 1, Alive: true}}))
}

// Version increases on every effective record change; the node rebuilds its
// tree views when it observes a new version.
func (s *Service) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Len returns the number of alive records (including self). The count is
// maintained incrementally — runtimes poll it every tick.
func (s *Service) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.alive
}

// RosterHash returns the order-independent hash of the whole record table
// over each line's (key, stamp, liveness), not its subscription. Equal hashes
// mean equal lines up to hash collision and up to subscriptions: two services
// may hold one line at one stamp and liveness with different subscriptions
// and still hash equal. Digests compare it.
func (s *Service) RosterHash() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hash
}

// recHash hashes one roster line's (key, stamp, liveness) — FNV-1a over the
// key, mixed with stamp and liveness through a splitmix64 finalizer — and not
// its subscription, which supersedes does not compare either. Line hashes
// combine by XOR into the Service's order-independent roster hash, so every
// write updates it in O(1).
func recHash(key string, stamp uint64, alive bool) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	h ^= stamp * 0x9e3779b97f4a7c15
	if alive {
		h ^= 0xbf58476d1ce4e5b9
	}
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// supersedes is the one freshness order of a membership line: a line at
// (stamp, alive) replaces one held at (curStamp, curAlive) when its stamp is
// higher, or at an equal stamp when it is a tombstone and the held line is
// not — removals win over stale copies.
func supersedes(stamp uint64, alive bool, curStamp uint64, curAlive bool) bool {
	return stamp > curStamp || stamp == curStamp && !alive && curAlive
}

// merge returns what a line held as cur becomes on receiving r, and whether
// that differs from cur. A record that would win even alive has the higher
// stamp and replaces the whole line; one that wins only as a tombstone wins a
// tie, and the line keeps its subscription.
func merge(cur, r Record) (Record, bool) {
	if !supersedes(r.Stamp, r.Alive, cur.Stamp, cur.Alive) {
		return cur, false
	}
	if supersedes(r.Stamp, true, cur.Stamp, cur.Alive) {
		return r, true
	}
	cur.Alive = false
	return cur, true
}

// writeLocked is the one write to a known line: base line i becomes next.
// The line is copied into the overlay on its first write, the change is
// folded into the roster hash and the liveness-derived fields, and the line
// is logged against the version the write lands on, s.version+1, which the
// caller moves to. It returns the service's own record for the line.
func (s *Service) writeLocked(i int32, next Record) *Record {
	rec, ok := s.over[i]
	if !ok {
		cp := s.base.Records[i]
		rec = &cp
		s.over[i] = rec
	}
	key := rec.Addr.Key()
	s.hash ^= recHash(key, rec.Stamp, rec.Alive) ^ recHash(key, next.Stamp, next.Alive)
	if rec.Alive != next.Alive {
		s.setAliveLocked(i, next.Alive)
	}
	*rec = next
	s.logChangeLocked(s.version+1, rec)
	return rec
}

// bumpLocked is the owner's write, the one way a service itself moves a
// line: base line i goes to its next stamp with edit applied, on a version of
// its own.
func (s *Service) bumpLocked(i int32, edit func(*Record)) *Record {
	next := *s.lineLocked(i)
	next.Stamp++
	edit(&next)
	rec := s.writeLocked(i, next)
	s.version++
	return rec
}

// setAliveLocked folds base line i's liveness transition into the alive
// counter, the pool's exclusion set and the neighbor cache. Self is counted
// but never pooled (a process does not gossip to itself).
func (s *Service) setAliveLocked(i int32, nowAlive bool) {
	if nowAlive {
		s.alive++
	} else {
		s.alive--
	}
	a := s.base.Records[i].Addr
	if a.Equal(s.cfg.Self) {
		return
	}
	// poolGone holds the down lines and neighborCache the live neighbors,
	// both sorted; inserting a present element or removing an absent one
	// is a no-op.
	if j, found := slices.BinarySearch(s.poolGone, i); nowAlive && found {
		s.poolGone = slices.Delete(s.poolGone, j, j+1)
	} else if !nowAlive && !found {
		s.poolGone = slices.Insert(s.poolGone, j, i)
	}
	if !a.HasPrefix(s.selfPrefix) {
		return
	}
	if j, found := slices.BinarySearchFunc(s.neighborCache, a, addr.Address.Compare); nowAlive && !found {
		s.neighborCache = slices.Insert(s.neighborCache, j, a)
	} else if !nowAlive && found {
		s.neighborCache = slices.Delete(s.neighborCache, j, j+1)
	}
}

// logChangeLocked appends one changelog line for the given (new) version.
func (s *Service) logChangeLocked(version uint64, rec *Record) {
	if len(s.changelog) >= changelogCap {
		half := len(s.changelog) / 2
		s.changelogMin = s.changelog[half-1].version
		s.changelog = append(s.changelog[:0], s.changelog[half:]...)
	}
	s.changelog = append(s.changelog, changeEntry{version: version, rec: rec})
}

// ChangedSince returns the current record of every line touched since the
// given version — each line once, however often it moved, in address order —
// or ok=false when the changelog no longer reaches back that far and the
// caller must scan the full table.
func (s *Service) ChangedSince(v uint64) (recs []Record, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if v < s.changelogMin {
		return nil, false
	}
	i := sort.Search(len(s.changelog), func(i int) bool { return s.changelog[i].version > v })
	lines := make([]*Record, 0, len(s.changelog)-i)
	for _, c := range s.changelog[i:] {
		lines = append(lines, c.rec)
	}
	// Mentions of one line are one pointer; sorting brings them together.
	slices.SortFunc(lines, func(a, b *Record) int { return a.Addr.Compare(b.Addr) })
	lines = slices.Compact(lines)
	recs = make([]Record, len(lines))
	for j, r := range lines {
		recs[j] = *r
	}
	return recs, true
}

// apply merges one record for a line this service holds, writing the line
// when it changed. It reports changed=false for a record that does not
// supersede the line, and known=false — having done nothing — when the
// address is a stranger. Callers hold s.mu.
func (s *Service) apply(r Record) (changed, known bool) {
	cur, i, known := s.peekLocked(r.Addr.Key())
	if !known {
		return false, false
	}
	next, changed := merge(*cur, r)
	if !changed {
		return false, true
	}
	// Self-defense: a tombstone that wins against our own line is answered by
	// staying alive one stamp above it, so the correction propagates (we are
	// obviously alive) and every later Subscribe bumps a live line.
	if !next.Alive && r.Addr.Equal(s.cfg.Self) {
		next = *cur
		next.Stamp, next.Alive = r.Stamp+1, true
	}
	s.writeLocked(i, next)
	return true, true
}

// admitLocked merges a batch of records — an Update's, a joiner's, a
// leave's tombstone — and lands it on the next version when anything
// changed, returning how many records did. A record whose address does not
// fit the space is refused: it could never be folded into a tree, and
// anti-entropy would carry it to every peer. Known lines merge in place;
// the batch's strangers rebase the service once, after them.
func (s *Service) admitLocked(recs []Record) int {
	changed := 0
	var strangers []Record
	for _, r := range recs {
		if s.cfg.Space.Validate(r.Addr) != nil {
			continue
		}
		switch ok, known := s.apply(r); {
		case !known:
			strangers = append(strangers, r)
		case ok:
			changed++
		}
	}
	if len(strangers) > 0 {
		changed += s.rebaseLocked(strangers)
	}
	if changed > 0 {
		s.version++
	}
	return changed
}

// Apply merges records from an Update, returning how many changed state.
// The Update's From is not a life sign: liveness is learned from who sent an
// envelope (MarkHeardAt), never from what a payload claims, so a forged
// Update cannot keep a silent neighbor alive.
func (s *Service) Apply(u Update) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admitLocked(u.Records)
}

// MakeDigest snapshots the service's (line, timestamp) pairs plus the
// roster summary, in the overlay form: its base and a copy of its overlay's
// stamps, O(|overlay|) however long the roster. The digest is memoized per
// version (divergence episodes trigger a push-pull reply per mismatched
// probe); callers and receivers treat its lines as read-only.
func (s *Service) MakeDigest() Digest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.digestLocked()
}

// digestLocked returns the memoized full digest, building it at most once per
// version. Callers hold s.mu for writing.
func (s *Service) digestLocked() Digest {
	if s.digestVersion != s.version {
		s.digest = Digest{From: s.cfg.Self, Hash: s.hash, Count: len(s.base.Records), base: s.base, over: s.overLinesLocked()}
		s.digestVersion = s.version
	}
	return s.digest
}

// overLinesLocked lists the overlay's lines sorted by base position, in a
// fresh slice. Only writeLocked moves a line, and it logs every write, so
// when the last memo is over the same base and the changelog reaches back to
// it, the list is that memo's patched with the lines written since: one merge
// of two sorted lists. Otherwise — no memo yet, a rebase, a changelog that
// overflowed — it is the overlay map's lines, sorted.
func (s *Service) overLinesLocked() []overLine {
	if s.digestVersion == 0 || s.digest.base != s.base || s.digestVersion < s.changelogMin {
		over := make([]overLine, 0, len(s.over))
		for i, r := range s.over {
			over = append(over, overLine{idx: i, stamp: r.Stamp, alive: r.Alive})
		}
		slices.SortFunc(over, func(a, b overLine) int { return cmp.Compare(a.idx, b.idx) })
		return over
	}
	since := s.changelog[sort.Search(len(s.changelog), func(i int) bool { return s.changelog[i].version > s.digestVersion }):]
	var buf [16]overLine
	moved := buf[:0]
	for _, c := range since {
		moved = append(moved, overLine{idx: s.base.index[c.rec.Addr.Key()], stamp: c.rec.Stamp, alive: c.rec.Alive})
	}
	// A line written twice is listed twice, both times at its current state.
	slices.SortFunc(moved, func(a, b overLine) int { return cmp.Compare(a.idx, b.idx) })
	moved = slices.CompactFunc(moved, func(a, b overLine) bool { return a.idx == b.idx })
	prev := s.digest.over
	over := make([]overLine, 0, len(prev)+len(moved))
	for len(prev) > 0 || len(moved) > 0 {
		switch {
		case len(moved) == 0 || len(prev) > 0 && prev[0].idx < moved[0].idx:
			over, prev = append(over, prev[0]), prev[1:]
		case len(prev) > 0 && prev[0].idx == moved[0].idx:
			over, prev, moved = append(over, moved[0]), prev[1:], moved[1:]
		default:
			over, moved = append(over, moved[0]), moved[1:]
		}
	}
	return over
}

// MakeSummaryDigest snapshots only the roster summary — the O(1) probe the
// periodic anti-entropy task sends. Receivers whose roster hash matches do
// nothing; a mismatch makes them answer with a full digest (push-pull), so
// line-level comparison happens only across actual divergence.
func (s *Service) MakeSummaryDigest() Digest {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Digest{From: s.cfg.Self, Hash: s.hash, Count: len(s.base.Records)}
}

// HandleDigest implements the pull: it returns an Update carrying every
// record the gossiper lacks or holds with a smaller timestamp. A nil Update
// means the gossiper is up to date.
//
// The second return value reports the reverse condition: the gossiper holds
// lines fresher than ours (or lines we lack entirely). Callers answer it by
// sending our own digest back, turning the exchange into push-pull. Pull
// alone has a liveness hole the chaos harness exposed: a process falsely
// expelled during a partition bumps its own stamp (self-defense) but is
// tombstoned in everyone's views, so no peer ever gossips a digest TO it —
// and pull semantics give it no way to push its resurrection outward. The
// counter-digest closes the loop (the resurrected line comes back with the
// peer's reply), and it cannot ping-pong: it is only sent for strictly
// fresher lines, and applying the resulting Update equalizes the stamps.
//
// The common case — converged peers exchanging identical rosters — costs
// two compares. An overlay-form digest over the receiver's own base costs
// one merge walk of the two overlays: a line in neither is the same base
// record on both sides, so it can yield neither a fresh record nor
// gossiperFresher. Any other full digest is walked line by line. Either way
// the Update lists its records in address order. Like an Update's, the
// digest's From is not a life sign (see Apply).
func (s *Service) HandleDigest(d Digest) (upd *Update, gossiperFresher bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.Hash == s.hash && d.Count == len(s.base.Records) {
		return nil, false // identical rosters, probe or full
	}
	if d.Len() == 0 {
		// Mismatched summary probe: request the gossiper's full digest so
		// the line-level exchange happens (the caller answers fresher=true
		// with our own full digest).
		return nil, true
	}
	var diff digestDiff
	if d.base == s.base {
		s.diffOverlaysLocked(d, &diff) // emits in base order, which is address order
	} else {
		s.diffLinesLocked(d, &diff)
		sort.Slice(diff.fresh, func(i, j int) bool { return diff.fresh[i].Addr.Less(diff.fresh[j].Addr) })
	}
	if len(diff.fresh) == 0 {
		return nil, diff.gossiperFresher
	}
	return &Update{From: s.cfg.Self, Records: diff.fresh}, diff.gossiperFresher
}

// digestDiff accumulates HandleDigest's two answers: the records the
// gossiper is stale on, and whether it is fresher on any line.
type digestDiff struct {
	fresh           []Record
	gossiperFresher bool
}

// oursFresher compares the gossiper's stamp and liveness for one line with
// ours, by supersedes in both directions: it reports whether ours is the
// fresher, whose record the caller then sends, and notes when the gossiper's
// is. Both digest walks decide every line they share with the gossiper here.
func (x *digestDiff) oursFresher(stamp uint64, alive bool, ourStamp uint64, ourAlive bool) bool {
	if supersedes(ourStamp, ourAlive, stamp, alive) {
		return true
	}
	if supersedes(stamp, alive, ourStamp, ourAlive) {
		x.gossiperFresher = true
	}
	return false
}

// diffOverlaysLocked is the walk for an overlay-form digest whose base is
// this service's own: only lines in the gossiper's overlay or in ours can
// differ. The digest lists every base line and a service holds exactly
// those, so neither side lacks a line. Both overlays are sorted by base
// position — ours is the memoized digest's — so one merge walk pairs them.
// It notes the lines where ours is the fresher, in base order, and only
// then reads their records, into a list of their exact length.
func (s *Service) diffOverlaysLocked(d Digest, x *digestDiff) {
	var buf [64]int32
	fresh := buf[:0]
	theirs, mine := d.over, s.digestLocked().over
	for len(theirs) > 0 || len(mine) > 0 {
		var i int32
		var stamp, ourStamp uint64
		var alive, ourAlive bool
		switch {
		case len(mine) == 0 || len(theirs) > 0 && theirs[0].idx < mine[0].idx:
			l, b := theirs[0], &s.base.Records[theirs[0].idx]
			i, stamp, alive, ourStamp, ourAlive = l.idx, l.stamp, l.alive, b.Stamp, b.Alive
			theirs = theirs[1:]
		case len(theirs) == 0 || mine[0].idx < theirs[0].idx:
			m, b := mine[0], &s.base.Records[mine[0].idx]
			i, stamp, alive, ourStamp, ourAlive = m.idx, b.Stamp, b.Alive, m.stamp, m.alive
			mine = mine[1:]
		default:
			l, m := theirs[0], mine[0]
			i, stamp, alive, ourStamp, ourAlive = l.idx, l.stamp, l.alive, m.stamp, m.alive
			theirs, mine = theirs[1:], mine[1:]
		}
		if x.oursFresher(stamp, alive, ourStamp, ourAlive) {
			fresh = append(fresh, i)
		}
	}
	if len(fresh) > 0 {
		x.fresh = make([]Record, len(fresh))
		for j, i := range fresh {
			x.fresh[j] = *s.lineLocked(i)
		}
	}
}

// diffLinesLocked walks a full digest line by line, then collects the lines
// the digest does not list at all; the set construction for those only
// happens when the line counts prove some exist.
func (s *Service) diffLinesLocked(d Digest, x *digestDiff) {
	shared := 0
	next := int32(0)
	for e := range d.Lines {
		var r *Record
		var ok bool
		if r, next, ok = s.peekNextLocked(e.Key, next); !ok {
			x.gossiperFresher = true // a line we lack entirely
			continue
		}
		shared++
		if x.oursFresher(e.Stamp, e.Alive, r.Stamp, r.Alive) {
			x.fresh = append(x.fresh, *r)
		}
	}
	if shared < len(s.base.Records) {
		// The digest misses lines we hold; identify them.
		known := make(map[string]struct{}, d.Len())
		for e := range d.Lines {
			known[e.Key] = struct{}{}
		}
		s.visitLocked(func(key string, r *Record) {
			if _, ok := known[key]; !ok {
				x.fresh = append(x.fresh, *r)
			}
		})
	}
}

// DigestTargets picks up to k distinct digest destinations, the first drawn
// from the process's immediate neighbors when it has any. The bias is what
// keeps the subgroup failure detector sound at scale: a neighbor's "last
// heard" must refresh every few membership intervals, which uniform fan-out
// over n ≫ subgroup-size peers cannot guarantee (the expected silence gap is
// (n/fanout)·interval). The remaining targets are uniform over all alive
// peers so anti-entropy still mixes globally.
func (s *Service) DigestTargets(rng *rand.Rand, k int) []addr.Address {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.poolLenLocked()
	if k <= 0 || n == 0 {
		return nil
	}
	want := min(k, n)
	out := make([]addr.Address, 0, want)
	// The neighbor slot only exists when at least one uniform slot remains:
	// digests are the sole cross-subgroup membership channel, so a fanout
	// of 1 must mix globally (the heartbeat beacon keeps the subgroup
	// failure detector fed regardless).
	if len(s.neighborCache) > 0 && k >= 2 {
		out = append(out, s.neighborCache[rng.Intn(len(s.neighborCache))])
	}
	// The rest by deterministic rejection sampling over the sorted alive-peer
	// pool, read through poolAtLocked, so rng consumption and drawn addresses
	// are the same whichever route built the table — which the golden traces
	// pin. A draw is checked against the at most k picks already made; the
	// neighbor is a pool member, so want picks always exist.
	for len(out) < want {
		if p := s.poolAtLocked(rng.Intn(n)); !slices.ContainsFunc(out, p.Equal) {
			out = append(out, p)
		}
	}
	return out
}

// BuildJoinRequest creates the announcement a joiner sends to its contact.
func (s *Service) BuildJoinRequest() JoinRequest {
	s.mu.RLock()
	defer s.mu.RUnlock()
	self, _, _ := s.peekLocked(s.cfg.Self.Key())
	return JoinRequest{Joiner: *self, Hops: s.cfg.Space.Depth()}
}

// HandleJoinRequest admits a joiner: the receiver merges the joiner's
// record, replies with its full view (so the joiner bootstraps), and — when
// it knows a process strictly closer to the joiner — returns that address so
// the caller forwards the request one hop further ("this is made
// recursively, until the most immediate delegates of the new process have
// been contacted"). A joiner whose address does not fit the space is refused
// before anything is built: the reply holds no records and there is no hop,
// so a forged request of a few bytes costs no full-view reply.
func (s *Service) HandleJoinRequest(jr JoinRequest) (reply Update, forward addr.Address, ok bool) {
	if s.cfg.Space.Validate(jr.Joiner.Addr) != nil {
		return Update{}, addr.Address{}, false
	}
	s.mu.Lock()
	s.admitLocked([]Record{jr.Joiner})
	// The one life sign a payload names: a relayed request comes from the
	// relay, not the joiner, and is a rejoiner's first life sign — its
	// lastHeard, from before it was expelled, is stale, and the next sweep
	// would expel the process just admitted. The joiner is in the space, so
	// whether the detector watches it is its prefix.
	if jr.Joiner.Addr.HasPrefix(s.selfPrefix) {
		s.markHeardLocked(jr.Joiner.Addr, s.now())
	}
	records := make([]Record, 0, len(s.base.Records))
	s.visitLocked(func(_ string, r *Record) { records = append(records, *r) })
	// Choose the forward hop over the sorted alive-peer pool: ties at equal
	// prefix depth must resolve identically on every process and every run
	// (map iteration order would make seeded replays diverge).
	selfDepth := s.cfg.Self.CommonPrefixDepth(jr.Joiner.Addr)
	var best addr.Address
	bestDepth := selfDepth
	s.poolVisitLocked(func(peer addr.Address) {
		if peer.Equal(jr.Joiner.Addr) {
			return
		}
		if d := peer.CommonPrefixDepth(jr.Joiner.Addr); d > bestDepth {
			bestDepth, best = d, peer
		}
	})
	s.mu.Unlock()

	reply = Update{From: s.cfg.Self, Records: records} // in address order, as visited
	if jr.Hops > 0 && !best.IsZero() {
		return reply, best, true
	}
	return reply, addr.Address{}, false
}

// Subscribe replaces the process's own interests, bumping its line stamp so
// the change propagates.
func (s *Service) Subscribe(sub interest.Subscription) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bumpLocked(s.base.index[s.cfg.Self.Key()], func(r *Record) { r.Sub = sub })
}

// BuildLeave tombstones the process's own record and returns the
// notification to send to close neighbors.
func (s *Service) BuildLeave() Leave {
	s.mu.Lock()
	defer s.mu.Unlock()
	self := s.bumpLocked(s.base.index[s.cfg.Self.Key()], expel)
	return Leave{Addr: s.cfg.Self, Stamp: self.Stamp}
}

// expel is the edit of an owner's write that tombstones a line.
func expel(r *Record) { r.Alive = false }

// HandleLeave applies a departure notification.
func (s *Service) HandleLeave(l Leave) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.admitLocked([]Record{{Addr: l.Addr, Stamp: l.Stamp, Alive: false}})
}

// MarkHeardAt records life signs from a peer at the given time (any
// protocol message counts, membership or gossip — "every process keeps track
// of the last time it was contacted"); the runtime reads the clock once for a
// whole batch of received messages. Only immediate neighbors are recorded:
// SweepFailures reads nothing else, and whether an address is a neighbor is
// its prefix, which never changes — so the detector's maps stay bounded by
// the subgroup whoever writes, forged senders included, and everyone else
// never takes the lock.
func (s *Service) MarkHeardAt(a addr.Address, at time.Time) {
	if !s.monitors(a) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.markHeardLocked(a, at)
}

// monitors reports whether a is an immediate neighbor's address — in the
// space, under self's prefix — which is all the failure detector watches.
func (s *Service) monitors(a addr.Address) bool {
	return a.HasPrefix(s.selfPrefix) && s.cfg.Space.Validate(a) == nil
}

// markHeardLocked records a life sign from a, which the caller has found
// the detector monitors.
func (s *Service) markHeardLocked(a addr.Address, at time.Time) {
	s.lastHeard[a.Key()] = at
}

// ImmediateNeighbors lists the alive processes sharing the depth-d prefix
// with self — the subgroup whose members monitor each other.
func (s *Service) ImmediateNeighbors() []addr.Address {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]addr.Address(nil), s.neighborCache...)
}

// SweepFailures tombstones immediate neighbors that have been silent longer
// than SuspectAfter, returning the newly suspected addresses: the first sweep
// past the deadline expels. Neighbors never heard from are grandfathered at
// first sweep (their timer starts then), so a fresh join does not
// immediately expel its group.
func (s *Service) SweepFailures() []addr.Address {
	if s.cfg.SuspectAfter <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	var suspected []addr.Address
	// Walk a snapshot of the neighbor cache (exactly the alive immediate
	// neighbors, already sorted): expulsion mutates the cache mid-loop, and
	// scanning the whole record table per sweep would be O(fleet) for a
	// subgroup-sized concern.
	neighbors := append([]addr.Address(nil), s.neighborCache...)
	for _, a := range neighbors {
		key := a.Key()
		heard, ok := s.lastHeard[key]
		if !ok {
			s.lastHeard[key] = now
			continue
		}
		if now.Sub(heard) > s.cfg.SuspectAfter {
			s.bumpLocked(s.base.index[key], expel)
			suspected = append(suspected, a)
		}
	}
	// neighbors was sorted, so suspected already is.
	return suspected
}

// VisitRecords calls fn for every record — alive and tombstoned — in
// unspecified order. It is the allocation-free dump the runtime's
// incremental tree maintenance diffs against; callers needing a stable
// order must sort what they collect.
func (s *Service) VisitRecords(fn func(Record)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.visitLocked(func(_ string, r *Record) { fn(*r) })
}
