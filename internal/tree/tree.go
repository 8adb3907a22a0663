// Package tree implements pmcast's membership orchestration (paper
// Section 2): the compound spanning tree obtained by recursively electing R
// delegates per subgroup and merging them with the delegates of neighbor
// subgroups, together with the per-depth view tables every process keeps for
// the prefixes on its path to the root.
package tree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pmcast/internal/addr"
	"pmcast/internal/event"
	"pmcast/internal/interest"
)

// Common errors.
var (
	ErrUnknownMember   = errors.New("tree: unknown member")
	ErrDuplicateMember = errors.New("tree: member already present")
	ErrBadRedundancy   = errors.New("tree: redundancy factor R must be ≥ 1")
	ErrSpaceMismatch   = errors.New("tree: address does not fit the space")
)

// Member associates a process address with its individual subscription.
type Member struct {
	Addr addr.Address
	Sub  interest.Subscription
}

// ElectionStrategy chooses R delegates out of a candidate set. The choice
// must be deterministic: every process of a subgroup computes the same set
// without explicit agreement (paper Section 2.3, "Delegate selection").
type ElectionStrategy interface {
	// Elect returns min(r, len(candidates)) delegates. Candidates arrive
	// sorted by address; the returned slice must be a (possibly reordered)
	// subset.
	Elect(candidates []addr.Address, r int) []addr.Address
}

// SmallestAddress elects the R smallest addresses — the paper's default.
type SmallestAddress struct{}

var _ ElectionStrategy = SmallestAddress{}

// Elect implements ElectionStrategy.
func (SmallestAddress) Elect(candidates []addr.Address, r int) []addr.Address {
	if r > len(candidates) {
		r = len(candidates)
	}
	out := make([]addr.Address, r)
	copy(out, candidates[:r])
	return out
}

// ScoredElection elects the R candidates with the highest score, breaking
// ties by smallest address. It models the paper's suggested alternative
// criteria (computing power, memory, nature of interests).
type ScoredElection struct {
	// Score maps an address to its fitness; higher is better. Must be
	// deterministic across processes.
	Score func(addr.Address) float64
}

var _ ElectionStrategy = ScoredElection{}

// Elect implements ElectionStrategy.
func (e ScoredElection) Elect(candidates []addr.Address, r int) []addr.Address {
	if r > len(candidates) {
		r = len(candidates)
	}
	ranked := make([]addr.Address, len(candidates))
	copy(ranked, candidates)
	sort.SliceStable(ranked, func(i, j int) bool {
		si, sj := e.Score(ranked[i]), e.Score(ranked[j])
		if si != sj {
			return si > sj
		}
		return ranked[i].Less(ranked[j])
	})
	return ranked[:r]
}

// Config parameterizes tree construction.
type Config struct {
	// Space bounds addresses (depth d and arities).
	Space addr.Space
	// R is the redundancy factor: delegates elected per subgroup. The paper
	// recommends R > 1 (typically 3–4) for membership reliability.
	R int
	// Election selects delegates; nil means SmallestAddress.
	Election ElectionStrategy
	// FoldCacheBound caps live entries in the shared fold cache;
	// 0 means DefaultFoldCacheBound.
	FoldCacheBound int
	// CompilerBound caps interned compiled languages;
	// 0 means interest.DefaultCompilerBound.
	CompilerBound int
}

// ownerTok marks trie nodes writable by exactly one tree: a node whose
// owner field holds the tree's current token may be mutated in place;
// anything else is potentially shared with clones and must be copied first
// (copy-on-write). Clone swaps the donor's token, disowning every node it
// held in O(1) — the donor re-copies lazily on its next mutation.
type ownerTok struct{ _ byte }

// node is one prefix of the trie: a subgroup and, once computed, its
// delegates, process count (‖prefix‖, Eq. 4), regrouped interest summary,
// the summary's compiled form, and a generation counter.
type node struct {
	prefix    addr.Prefix
	children  map[int]*node // keyed by next digit
	member    *Member       // set only at full depth (leaf)
	owner     *ownerTok     // which tree may mutate this node in place
	delegates []addr.Address
	count     int
	summary   *interest.Summary
	// compiled is the summary's compiled matcher, interned through the
	// tree's Compiler so identical subtree interests share one form. It is
	// recompiled exactly when the node is recomputed — i.e. only along the
	// root path a membership change touched.
	compiled *interest.CompiledMatcher
	// gen counts recomputations of this node. Every mutation that can
	// change the view built over this prefix (its children's delegates,
	// counts or summaries) recomputes the node — path recomputation always
	// includes every ancestor of a touched leaf — so "gen unchanged" is a
	// sound signal that cached per-event matching results over the view
	// remain exact.
	gen uint64
	// viewGen advances exactly when the view-visible state of this node —
	// its children's delegates, counts or summary languages, captured in
	// kids — actually changed, while gen advances on every recompute.
	// Views carry viewGen: under skewed subscription flux most recomputes
	// re-derive identical lines (popular classes dominate every fold), and
	// a stable viewGen keeps per-event profile caches warm across them.
	// Sound because interned compiled-summary pointer equality is language
	// equality, and a view exposes nothing beyond what kids captures.
	viewGen uint64
	// kids is the view-visible signature of the children at the last
	// recompute, in sorted digit order; recompute compares against it to
	// decide whether viewGen must advance. Replaced wholesale, so clones
	// may share it.
	kids []kidSig
	// dirtySeq is the owning tree's deltaSeq at the last ApplyDelta that
	// listed this node for recomputation. Written on owned nodes only and
	// not carried by copyNode: a copy has not been listed by anyone.
	dirtySeq uint64
}

// kidSig is one child's contribution to the parent's view: everything a
// view line exposes about the subgroup.
type kidSig struct {
	digit     int
	count     int
	compiled  *interest.CompiledMatcher
	delegates []addr.Address
}

// kidsEqual reports whether two child signatures expose identical view
// lines. Compiled pointers compare by identity: the shared Compiler interns
// by language fingerprint, so equal pointers mean equal matched languages
// (the converse may fail after a compiler sweep, which only costs a
// spurious generation bump — the safe direction).
func kidsEqual(a, b []kidSig) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].digit != b[i].digit || a[i].count != b[i].count || a[i].compiled != b[i].compiled {
			return false
		}
		if len(a[i].delegates) != len(b[i].delegates) {
			return false
		}
		for j := range a[i].delegates {
			if !a[i].delegates[j].Equal(b[i].delegates[j]) {
				return false
			}
		}
	}
	return true
}

// Tree is the compound spanning tree over a concrete member population.
// It is a value snapshot: membership changes go through Add/Remove which
// incrementally recompute the affected root path. Tree is not safe for
// concurrent mutation; the membership layer serializes access.
type Tree struct {
	cfg      Config
	election ElectionStrategy
	// root is the trie, and the trie is the only member index: a member is
	// the leaf its address descends to, copy-on-write like every other node,
	// so a harness co-hosting 64k processes over one bootstrap roster holds
	// the members once, not 64k times.
	root *node
	// tok is the tree's current ownership token (see ownerTok).
	tok *ownerTok
	// compiler interns compiled summaries by fingerprint. Clones share it,
	// so a harness fleet folding the same roster compiles each distinct
	// interest language once per process population, not once per node.
	compiler *interest.Compiler
	// folds memoizes summary regrouping fleet-wide (shared by clones, like
	// the compiler): recompute's summary is a pure function of the ordered
	// child summaries, and co-hosted processes folding the same membership
	// movement redo identical merges — the first pays, the rest look up.
	folds *foldCache
	// foldRecomputes and foldHits count the regroupings this tree computed
	// (shared-cache misses it paid for) vs. looked up. Per-tree — unlike
	// the cache's own occupancy stats — so fleet reports can sum them.
	foldRecomputes uint64
	foldHits       uint64
	// deltaSeq numbers this tree's ApplyDelta calls (see node.dirtySeq).
	deltaSeq uint64
}

// FoldStats is a snapshot of the fold layer: this tree's own regrouping
// counters plus the occupancy of the shared caches behind it. The cache and
// compiler fields describe instances possibly shared with clones — fleet
// aggregation must dedupe them by ID, not sum them per tree.
type FoldStats struct {
	// Recomputes counts summary regroupings this tree computed (fold-cache
	// misses it paid); Hits the regroupings served from the shared cache.
	Recomputes uint64
	Hits       uint64
	// CacheID identifies the shared fold cache; CacheEntries its live
	// entries (gauge); CacheEvictions the entries dropped by generation
	// sweeps since creation (counter).
	CacheID        uint64
	CacheEntries   int
	CacheEvictions uint64
	// CompilerID/Entries/Evictions mirror the above for the interning
	// compiler.
	CompilerID        uint64
	CompilerEntries   int
	CompilerEvictions uint64
}

// FoldStats reports the fold layer's counters and cache occupancy.
func (t *Tree) FoldStats() FoldStats {
	id, entries, evictions := t.folds.stats()
	cs := t.compiler.Stats()
	return FoldStats{
		Recomputes:        t.foldRecomputes,
		Hits:              t.foldHits,
		CacheID:           id,
		CacheEntries:      entries,
		CacheEvictions:    evictions,
		CompilerID:        cs.ID,
		CompilerEntries:   cs.Entries,
		CompilerEvictions: cs.Evictions,
	}
}

// foldEntry is one memoized regrouping result: the merged summary (treated
// immutable, exactly like summaries shared through Clone) and its compiled
// form. The summary carries the identity the cache minted for its content
// (interest.Summary.Identity) — the key material for folds that consume it
// one level up.
type foldEntry struct {
	summary  *interest.Summary
	compiled *interest.CompiledMatcher
}

// foldKey names a fold by its inputs, fixed-width per input: a leaf fold by
// its member's subscription identity, an interior fold by its children's
// summary identities, 8 bytes each in digit order. Order matters —
// regrouping's merge heuristic depends on accumulation order, so only
// order-identical inputs may share a fold.
type foldKey struct {
	leaf interest.Identity
	kids string
}

// DefaultFoldCacheBound caps live entries in the shared fold cache (across
// both generations). Sustained subscription flux mints fresh fold inputs
// indefinitely; the former wholesale reset at this size threw the whole
// working set away, the generational sweep below keeps the touched half.
const DefaultFoldCacheBound = 1 << 16

// foldCacheIDs mints process-unique cache identities so fleet-level stats
// can count each shared cache once (a co-hosted fleet shares one through
// tree clones).
var foldCacheIDs atomic.Uint64

// summaryIDs mints summary identities, process-wide and never reused: an
// identity names one content for the life of the process, whichever cache
// minted it.
var summaryIDs atomic.Uint64

// foldGen is one generation of the cache: the memoized folds plus the
// hash-consing table that gives every summary created in the generation its
// identity, keyed by the summary's OrderedFingerprint so equal content —
// reached through whatever fold — is named alike and keys the same folds one
// level up.
type foldGen struct {
	folds map[foldKey]foldEntry
	ids   map[string]uint64
}

func newFoldGen(size int) foldGen {
	return foldGen{folds: make(map[foldKey]foldEntry, size), ids: make(map[string]uint64)}
}

// foldCache is the shared regrouping memo. Safe for concurrent use: trees
// cloned across live nodes rebuild on their own goroutines.
//
// It is bounded by generational sweep: inserts and hits land in the hot
// generation; when hot reaches half the bound, the cold generation — every
// fold input not touched since the last sweep — is dropped wholesale. A
// dropped entry only costs a recompute if the fold recurs; correctness
// never depends on a hit. Identities are swept with their generation: content
// created again after that is named afresh, so folds keyed by the old name
// miss — they can never hit a fold of different inputs, because a name is
// never given to a second content.
type foldCache struct {
	mu        sync.Mutex
	id        uint64
	bound     int
	hot, cold foldGen
	evictions uint64
}

func newFoldCache(bound int) *foldCache {
	if bound <= 0 {
		bound = DefaultFoldCacheBound
	}
	return &foldCache{id: foldCacheIDs.Add(1), bound: bound, hot: newFoldGen(0), cold: newFoldGen(0)}
}

// get looks the fold up without building its key: the conversions below sit
// inside the map index expressions, where they do not allocate.
func (fc *foldCache) get(leaf interest.Identity, kids []byte) (foldEntry, bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.getLocked(leaf, kids)
}

func (fc *foldCache) getLocked(leaf interest.Identity, kids []byte) (foldEntry, bool) {
	e, ok := fc.hot.folds[foldKey{leaf, string(kids)}]
	if !ok {
		if e, ok = fc.cold.folds[foldKey{leaf, string(kids)}]; ok {
			// Promote: a touched fold survives the next sweep.
			key := foldKey{leaf, string(kids)}
			delete(fc.cold.folds, key)
			fc.rotateIfFullLocked()
			fc.hot.folds[key] = e
		}
	}
	return e, ok
}

// put records a fold just computed, unless a racing tree recorded the same
// fold first: then the resident entry is returned (and resident is true), so
// every tree holds one summary per fold and the fold is counted once. A
// summary that is inserted gets its identity here.
func (fc *foldCache) put(leaf interest.Identity, kids []byte, e foldEntry) (_ foldEntry, resident bool) {
	fp := e.summary.OrderedFingerprint()
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if prev, ok := fc.getLocked(leaf, kids); ok {
		return prev, true
	}
	fc.rotateIfFullLocked()
	id, ok := fc.hot.ids[fp]
	if !ok {
		if id, ok = fc.cold.ids[fp]; ok {
			delete(fc.cold.ids, fp)
		} else {
			id = summaryIDs.Add(1)
		}
		fc.hot.ids[fp] = id
	}
	e.summary.SetIdentity(id)
	fc.hot.folds[foldKey{leaf, string(kids)}] = e
	return e, false
}

// rotateIfFullLocked makes room for one insert into the hot generation (hot
// and cold stay disjoint; live folds never exceed bound).
func (fc *foldCache) rotateIfFullLocked() {
	if len(fc.hot.folds) >= max(1, fc.bound/2) {
		fc.evictions += uint64(len(fc.cold.folds))
		fc.cold = fc.hot
		fc.hot = newFoldGen(len(fc.cold.folds))
	}
}

func (fc *foldCache) stats() (id uint64, entries int, evictions uint64) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.id, len(fc.hot.folds) + len(fc.cold.folds), fc.evictions
}

// New builds an empty tree.
func New(cfg Config) (*Tree, error) {
	if cfg.R < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadRedundancy, cfg.R)
	}
	if cfg.Space.Depth() == 0 {
		return nil, fmt.Errorf("%w: zero space", ErrSpaceMismatch)
	}
	el := cfg.Election
	if el == nil {
		el = SmallestAddress{}
	}
	tok := new(ownerTok)
	return &Tree{
		cfg:      cfg,
		election: el,
		tok:      tok,
		root:     &node{prefix: addr.Root(), children: make(map[int]*node), owner: tok},
		compiler: interest.NewCompilerBounded(cfg.CompilerBound),
		folds:    newFoldCache(cfg.FoldCacheBound),
	}, nil
}

// lookupMember descends to the address's leaf; nil when the address is not
// a member (or is not a full-depth address of this tree). The returned
// value may be shared with clones: replace it through updateMemberRaw, never
// write through it.
func (t *Tree) lookupMember(a addr.Address) *Member {
	if a.Depth() != t.Depth() {
		return nil
	}
	n := t.lookup(a.Prefix(t.Depth() + 1))
	if n == nil {
		return nil
	}
	return n.member
}

// visitMembers calls fn for every member under n in address order.
func visitMembers(n *node, fn func(*Member)) {
	if n.member != nil {
		fn(n.member)
		return
	}
	for _, digit := range sortedDigits(n.children) {
		visitMembers(n.children[digit], fn)
	}
}

// copyNode shallow-copies a shared trie node for mutation by the owning
// tree: aggregates and the member pointer are shared (immutable until
// replaced wholesale), the children map is copied so edits stay private.
func copyNode(n *node, tok *ownerTok) *node {
	c := &node{
		prefix:    n.prefix,
		children:  make(map[int]*node, len(n.children)),
		member:    n.member,
		delegates: n.delegates,
		count:     n.count,
		summary:   n.summary,
		compiled:  n.compiled,
		gen:       n.gen,
		viewGen:   n.viewGen,
		kids:      n.kids,
		owner:     tok,
	}
	for d, ch := range n.children {
		c.children[d] = ch
	}
	return c
}

// ownRoot returns the root, copied first if it is shared with clones.
func (t *Tree) ownRoot() *node {
	if t.root.owner != t.tok {
		t.root = copyNode(t.root, t.tok)
	}
	return t.root
}

// ownChild returns parent's child for the digit, copied into this tree's
// ownership if shared. parent must already be owned. Nil when absent.
func (t *Tree) ownChild(parent *node, digit int) *node {
	child, ok := parent.children[digit]
	if !ok {
		return nil
	}
	if child.owner != t.tok {
		child = copyNode(child, t.tok)
		parent.children[digit] = child
	}
	return child
}

// ownLookup descends to the prefix's node, copy-on-writing the whole path
// so the caller may mutate it. Nil when the prefix is unpopulated.
func (t *Tree) ownLookup(p addr.Prefix) *node {
	n := t.ownRoot()
	for i := 1; i <= p.Len(); i++ {
		n = t.ownChild(n, p.Digit(i))
		if n == nil {
			return nil
		}
	}
	return n
}

// Build constructs a tree over an initial member set in one pass: members
// are inserted without intermediate aggregation and the whole trie is
// recomputed bottom-up once, which is what the live runtime does on every
// membership snapshot.
func Build(cfg Config, members []Member) (*Tree, error) {
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for _, m := range members {
		if err := t.insertRaw(m); err != nil {
			return nil, err
		}
	}
	t.recomputeAll(t.root)
	return t, nil
}

// insertRaw attaches a member without recomputing aggregates.
func (t *Tree) insertRaw(m Member) error {
	if err := t.cfg.Space.Validate(m.Addr); err != nil {
		return fmt.Errorf("%w: %v", ErrSpaceMismatch, err)
	}
	if t.lookupMember(m.Addr) != nil {
		return fmt.Errorf("%w: %s", ErrDuplicateMember, m.Addr)
	}
	n := t.ownRoot()
	for i := 1; i <= t.Depth(); i++ {
		digit := m.Addr.Digit(i)
		child := t.ownChild(n, digit)
		if child == nil {
			child = &node{prefix: n.prefix.Child(digit), children: make(map[int]*node), owner: t.tok}
			n.children[digit] = child
		}
		n = child
	}
	n.member = &m
	return nil
}

// recomputeAll refreshes aggregates postorder; n must be owned (the sweep
// copy-on-writes every shared descendant it touches).
func (t *Tree) recomputeAll(n *node) {
	for digit := range n.children {
		t.recomputeAll(t.ownChild(n, digit))
	}
	t.recompute(n)
}

// Depth returns the tree depth d.
func (t *Tree) Depth() int { return t.cfg.Space.Depth() }

// R returns the redundancy factor.
func (t *Tree) R() int { return t.cfg.R }

// Space returns the address space.
func (t *Tree) Space() addr.Space { return t.cfg.Space }

// Len returns the current number of members.
func (t *Tree) Len() int { return t.root.count }

// Member returns the member with the given address.
func (t *Tree) Member(a addr.Address) (Member, bool) {
	m := t.lookupMember(a)
	if m == nil {
		return Member{}, false
	}
	return *m, true
}

// Members returns all members sorted by address.
func (t *Tree) Members() []Member {
	out := make([]Member, 0, t.Len())
	visitMembers(t.root, func(m *Member) { out = append(out, *m) })
	return out
}

// Clone returns an independent copy of the tree in O(1): the whole trie —
// members included, they are its leaves — is shared copy-on-write. The
// donor's ownership token is swapped so every node it held becomes read-only
// to both trees; whichever tree mutates a shared node next copies just the
// touched root path (shallow, children maps excluded from aggregates).
// Summaries, delegate slices and *Member values are immutable-by-convention
// — recomputation replaces them wholesale. The point at fleet scale: 64k
// co-hosted processes adopting one bootstrap fold hold ONE trie, and each
// diverges only by the paths its own membership changes touch.
func (t *Tree) Clone() *Tree {
	// Disown every node the donor held: both trees now copy-on-write.
	t.tok = new(ownerTok)
	return &Tree{
		cfg:      t.cfg,
		election: t.election,
		tok:      new(ownerTok),
		root:     t.root,
		compiler: t.compiler,
		folds:    t.folds,
	}
}

// Add inserts a member and recomputes delegates, counts and summaries along
// its root path.
func (t *Tree) Add(m Member) error { return t.ApplyDelta(Delta{Add: []Member{m}}) }

// Remove deletes a member (leave or exclusion after failure detection) and
// recomputes its surviving root path.
func (t *Tree) Remove(a addr.Address) error { return t.ApplyDelta(Delta{Remove: []addr.Address{a}}) }

// UpdateSubscription replaces a member's interests and refreshes summaries
// on its root path.
func (t *Tree) UpdateSubscription(a addr.Address, sub interest.Subscription) error {
	return t.ApplyDelta(Delta{Update: []Member{{Addr: a, Sub: sub}}})
}

// Delta is a batch of membership changes applied with a single bottom-up
// recompute of the touched prefixes: each dirty prefix is recomputed exactly
// once however many of the batch's changes lie under it, which is what keeps
// fleet-scale churn (and the initial population of a large tree) cheap.
type Delta struct {
	Add    []Member
	Update []Member
	Remove []addr.Address
}

// ApplyDelta applies the batch. On error the structural edits applied so
// far remain (with their paths recomputed); callers treat that as fatal and
// rebuild.
func (t *Tree) ApplyDelta(d Delta) error {
	// For bulk batches — the initial population, a mass rejoin — path
	// bookkeeping costs more than sweeping the whole trie once.
	total := len(d.Add) + len(d.Update) + len(d.Remove)
	if bulk := total >= 16 && total*2 >= t.Len()+len(d.Add); bulk {
		return t.applyDeltaBulk(d)
	}
	// dirty[l] lists the trie nodes of prefix length l the batch touched,
	// each once: a node is stamped with this call's sequence number when it
	// is first listed.
	t.deltaSeq++
	dirty := make([][]*node, t.Depth()+1)
	markPath := func(a addr.Address) {
		// The raw edit just made owned the whole path, down to where a
		// removal pruned it.
		n := t.ownRoot()
		for l := 0; n != nil; l++ {
			if n.dirtySeq != t.deltaSeq {
				n.dirtySeq = t.deltaSeq
				dirty[l] = append(dirty[l], n)
			}
			if l == t.Depth() {
				break
			}
			n = t.ownChild(n, a.Digit(l+1))
		}
	}
	recomputeDirty := func() {
		for l := len(dirty) - 1; l >= 0; l-- {
			for _, n := range dirty[l] {
				// A node emptied by a removal later in the batch was pruned
				// from the trie; there is nothing left to recompute there.
				if n == t.root || n.member != nil || len(n.children) > 0 {
					t.recompute(n)
				}
			}
		}
	}
	for _, m := range d.Add {
		if err := t.insertRaw(m); err != nil {
			recomputeDirty()
			return err
		}
		markPath(m.Addr)
	}
	for _, m := range d.Update {
		if err := t.updateMemberRaw(m.Addr, m.Sub); err != nil {
			recomputeDirty()
			return err
		}
		markPath(m.Addr)
	}
	for _, a := range d.Remove {
		if err := t.removeRaw(a); err != nil {
			recomputeDirty()
			return err
		}
		markPath(a)
	}
	recomputeDirty()
	return nil
}

// applyDeltaBulk is ApplyDelta's bulk path: structural edits followed by one
// whole-trie recompute (the same sweep Build does).
func (t *Tree) applyDeltaBulk(d Delta) error {
	var firstErr error
	for _, m := range d.Add {
		if err := t.insertRaw(m); err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		for _, m := range d.Update {
			if err := t.updateMemberRaw(m.Addr, m.Sub); err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr == nil {
		for _, a := range d.Remove {
			if err := t.removeRaw(a); err != nil {
				firstErr = err
				break
			}
		}
	}
	t.recomputeAll(t.ownRoot())
	return firstErr
}

// removeRaw detaches a member and prunes emptied trie nodes without
// recomputing aggregates.
func (t *Tree) removeRaw(a addr.Address) error {
	if t.lookupMember(a) == nil {
		return fmt.Errorf("%w: %s", ErrUnknownMember, a)
	}
	n := t.ownRoot()
	path := []*node{n}
	for i := 1; i <= t.Depth(); i++ {
		n = t.ownChild(n, a.Digit(i))
		path = append(path, n)
	}
	n.member = nil
	for i := len(path) - 1; i >= 1 && len(path[i].children) == 0; i-- {
		delete(path[i-1].children, a.Digit(i))
	}
	return nil
}

// updateMemberRaw replaces a member's subscription without recomputing
// aggregates, copy-on-writing the member value and its leaf path.
func (t *Tree) updateMemberRaw(a addr.Address, sub interest.Subscription) error {
	if t.lookupMember(a) == nil {
		return fmt.Errorf("%w: %s", ErrUnknownMember, a)
	}
	leaf := t.ownLookup(a.Prefix(t.Depth() + 1))
	leaf.member = &Member{Addr: leaf.member.Addr, Sub: sub}
	return nil
}

// fold returns the regrouping of one node's inputs through the shared fold
// cache: the result is a pure function of the ordered child summaries (leaf:
// of the member's subscription), so identical folds — across prefixes,
// across clones, across a whole co-hosted fleet digesting the same churn —
// are computed once and shared. merge accumulates the inputs into a fresh
// summary; it runs only when the fold is not cached.
func (t *Tree) fold(leaf interest.Identity, kids []byte, merge func(*interest.Summary)) foldEntry {
	e, hit := t.folds.get(leaf, kids)
	if !hit {
		s := interest.NewSummary()
		merge(s)
		e, hit = t.folds.put(leaf, kids, foldEntry{summary: s, compiled: t.compiler.CompileSummary(s)})
	}
	if hit {
		t.foldHits++
	} else {
		t.foldRecomputes++
	}
	return e
}

// recompute refreshes one node's aggregates. Every summary in the trie comes
// out of fold, so every one carries the identity its parent's fold is keyed
// by, and a cached fold costs its inputs' identities, never their size.
func (t *Tree) recompute(n *node) {
	n.gen++
	if n.member != nil {
		n.count = 1
		e := t.fold(n.member.Sub.Identity(), nil, func(s *interest.Summary) { s.Add(n.member.Sub) })
		n.summary, n.compiled = e.summary, e.compiled
		n.delegates = []addr.Address{n.member.Addr}
		// Leaves base no view (views are built over strict prefixes); their
		// visible state is captured by the parent's kids signature.
		n.viewGen = n.gen
		return
	}
	n.count = 0
	digits := sortedDigits(n.children)
	kids := make([]byte, 0, 8*16) // on the stack up to arity 16
	candidates := make([]addr.Address, 0, t.cfg.R*len(n.children))
	newKids := make([]kidSig, 0, len(digits))
	for _, digit := range digits {
		child := n.children[digit]
		n.count += child.count
		kids = binary.LittleEndian.AppendUint64(kids, child.summary.Identity())
		candidates = append(candidates, child.delegates...)
		newKids = append(newKids, kidSig{
			digit:     digit,
			count:     child.count,
			compiled:  child.compiled,
			delegates: child.delegates,
		})
	}
	e := t.fold(interest.Identity{}, kids, func(s *interest.Summary) {
		for _, digit := range digits {
			s.Merge(n.children[digit].summary)
		}
	})
	n.summary, n.compiled = e.summary, e.compiled
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].Less(candidates[j]) })
	n.delegates = t.election.Elect(candidates, t.cfg.R)
	if !kidsEqual(n.kids, newKids) {
		n.viewGen = n.gen
	}
	n.kids = newKids
}

func sortedDigits(children map[int]*node) []int {
	digits := make([]int, 0, len(children))
	for d := range children {
		digits = append(digits, d)
	}
	sort.Ints(digits)
	return digits
}

// lookup returns the node for the prefix, or nil.
func (t *Tree) lookup(p addr.Prefix) *node {
	n := t.root
	for i := 1; i <= p.Len(); i++ {
		child, ok := n.children[p.Digit(i)]
		if !ok {
			return nil
		}
		n = child
	}
	return n
}

// Count returns ‖prefix‖, the number of processes in the subtree (Eq. 4).
func (t *Tree) Count(p addr.Prefix) int {
	n := t.lookup(p)
	if n == nil {
		return 0
	}
	return n.count
}

// Delegates returns the elected delegates representing the subtree at the
// given prefix (the processes populating the parent node on its behalf).
func (t *Tree) Delegates(p addr.Prefix) []addr.Address {
	n := t.lookup(p)
	if n == nil {
		return nil
	}
	out := make([]addr.Address, len(n.delegates))
	copy(out, n.delegates)
	return out
}

// Summary returns the regrouped interest summary of the subtree.
func (t *Tree) Summary(p addr.Prefix) *interest.Summary {
	n := t.lookup(p)
	if n == nil {
		return nil
	}
	return n.summary
}

// CompiledSummary returns the compiled matcher of the subtree's regrouped
// interest — the form the runtime matches events against. Nil when the
// prefix is unpopulated (the nil matcher matches nothing, like a nil
// Summary).
func (t *Tree) CompiledSummary(p addr.Prefix) *interest.CompiledMatcher {
	n := t.lookup(p)
	if n == nil {
		return nil
	}
	return n.compiled
}

// Generation returns the view generation of the prefix node: it advances
// exactly when a recompute changed what a view built over this prefix
// exposes (its subgroups' delegates, counts or summary languages), so equal
// generations guarantee the views match events identically — and recomputes
// that re-derive identical lines, the common case under skewed subscription
// flux, leave it untouched. Unpopulated prefixes report 0.
func (t *Tree) Generation(p addr.Prefix) uint64 {
	n := t.lookup(p)
	if n == nil {
		return 0
	}
	return n.viewGen
}

// MatchReach counts the members an event descends to through the regrouped
// summary hierarchy: a member is reached when the summary of every interior
// prefix on its path (lengths 0 … d−1 — the prefixes the view tables at
// depths 1 … d are built over) matches the event, i.e. the event's gossip
// enters the member's leaf group. The member's own exact interest at depth d
// is deliberately not consulted: it is what finally filters delivery, so
// reach minus interest is precisely the routing the widened summaries could
// not prune. Summaries only over-approximate (regrouping widens, never
// narrows), so the reached set always contains the interested set — the
// surplus is the false-positive traffic the disjunct caps
// (MaxNumericDisjuncts, MaxStringDisjuncts and the summary bound) trade for
// bounded summaries, which is what the harness's
// summary_false_positive_rate reports.
func (t *Tree) MatchReach(ev event.Event) int {
	return matchReach(t.root, ev)
}

func matchReach(n *node, ev event.Event) int {
	if n == nil {
		return 0
	}
	if n.member != nil {
		return 1 // entry was gated by the parent prefix's summary
	}
	if n.compiled == nil || !n.compiled.Matches(ev) {
		return 0
	}
	total := 0
	for _, child := range n.children {
		total += matchReach(child, ev)
	}
	return total
}

// IsDelegate reports whether process a represents its depth-i subtree, i.e.
// appears in the group of depth i. Every process is trivially a "delegate"
// at depth d (it appears in its leaf group).
func (t *Tree) IsDelegate(a addr.Address, depth int) bool {
	if depth == t.Depth() {
		return t.lookupMember(a) != nil
	}
	// a represents its subtree rooted at prefix of length depth.
	n := t.lookup(a.Prefix(depth + 1))
	if n == nil {
		return false
	}
	for _, d := range n.delegates {
		if d.Equal(a) {
			return true
		}
	}
	return false
}

// TopDepth returns the smallest depth at which the process appears (1 if it
// is a root delegate). Processes participate in gossiping from their top
// depth down to depth d.
func (t *Tree) TopDepth(a addr.Address) int {
	for i := 1; i < t.Depth(); i++ {
		if t.IsDelegate(a, i) {
			return i
		}
	}
	return t.Depth()
}

// KnownProcesses computes the total membership knowledge of a process
// (Eq. 2): its immediate neighbors plus R delegates per subgroup at every
// shallower depth, with multiplicity (a delegate of depth i is counted again
// at every depth below, as in the paper's expression).
func (t *Tree) KnownProcesses(a addr.Address) int {
	total := 0
	for depth := 1; depth <= t.Depth(); depth++ {
		v := t.ViewAt(a, depth)
		if v == nil {
			continue
		}
		for _, line := range v.Lines {
			total += len(line.Delegates)
		}
	}
	return total
}
