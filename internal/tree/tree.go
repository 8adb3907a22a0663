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
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"weak"

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
	// foldCacheBound is test plumbing: in-package tests shrink the shared
	// store's per-table bound to force sweeps. 0, what every caller outside
	// the package gets, means DefaultFoldCacheBound.
	foldCacheBound int
}

// node is one populated prefix of the trie: a subgroup with its delegates,
// process count (‖prefix‖, Eq. 4), regrouped interest summary and the name of
// the summary's language. A node is a pure function of what lies beneath it
// — every process of a subgroup derives the same one from the same
// membership (Section 2.3) — so it is immutable once built and interned in
// the store its tree shares with its clones: a leaf under (address,
// subscription identity), an interior node under its children's ids. Trees
// that agree on a subtree hold the same node; a tree moves by swapping in
// the nodes of the root paths a change touched. The one field that is not
// immutable is a cache: the index of the view over an interior node's
// children, built on the first ViewOf and held weakly (see viewIndex).
type node struct {
	// id names the node in its parent's store key. Minted when the node is
	// interned and never given to another, so a node the store has swept
	// stays valid in the trees that hold it: content built again is a new
	// node under a new id, and a key made of old ids can only miss.
	id uint64
	// children is indexed by the next digit, nil where the subgroup is
	// unpopulated; a leaf has none.
	children  []*node
	member    *Member // set only at full depth (leaf)
	delegates []addr.Address
	count     int
	summary   *interest.Summary
	// lang names the summary's language (see store.lang): equal names, equal
	// matched events.
	lang uint64
	// viewGen names what a view built over this prefix exposes: the interned
	// identity of the children's view signature (see appendViewLine). Most
	// folds under skewed subscription flux re-derive identical lines, and an
	// unmoved viewGen keeps per-event profile caches warm across them.
	viewGen uint64
	// index is the view's index while some TreeView holds it, guarded by the
	// store's mutex. Weak, because the store keeps every node it interned:
	// under subscription flux most are stale, and a strong index on each
	// would pin memory no process reads.
	index weak.Pointer[interest.Index]
}

// Tree is the compound spanning tree over a concrete member population.
// It is a value snapshot: membership changes go through ApplyDelta, which
// rebuilds the affected root paths and swaps the root. Tree is not safe for
// concurrent mutation; the membership layer serializes access.
type Tree struct {
	cfg      Config
	election ElectionStrategy
	// root is the trie, and the trie is the only member index: a member is
	// the leaf its address descends to. Nodes are shared through the store,
	// so a harness co-hosting 64k processes over one roster holds each
	// agreed subtree once, not 64k times.
	root *node
	// store is shared by clones: trie nodes, view signatures, summary
	// regroupings and language names, each computed by the first tree that
	// needs it and looked up by the rest — a harness fleet folding the same
	// roster regroups each distinct subtree once per process population, not
	// once per node.
	store *store
	// foldRecomputes and foldHits count, per node this tree's changes
	// touched, whether the tree computed its regrouping or was served — the
	// node whole, or its regrouping — from the store. Per-tree — unlike the
	// store's own occupancy stats — so fleet reports can sum them.
	foldRecomputes uint64
	foldHits       uint64
}

// FoldStats is a snapshot of the fold layer: this tree's own regrouping
// counters plus the occupancy of the shared store behind it. The cache and
// language fields describe a store possibly shared with clones — fleet
// aggregation must dedupe them by CacheID, not sum them per tree.
type FoldStats struct {
	// Recomputes counts summary regroupings this tree computed (fold-cache
	// misses it paid); Hits the touched nodes served from the shared store.
	Recomputes uint64
	Hits       uint64
	// CacheID identifies the shared store; CacheEntries its live
	// regroupings (gauge); CacheEvictions the regroupings dropped by
	// generation sweeps since creation (counter).
	CacheID        uint64
	CacheEntries   int
	CacheEvictions uint64
	// CompilerEntries/Evictions mirror the above for the store's language
	// names.
	CompilerEntries   int
	CompilerEvictions uint64
}

// FoldStats reports the fold layer's counters and cache occupancy.
func (t *Tree) FoldStats() FoldStats {
	fs := t.store.stats()
	fs.Recomputes, fs.Hits = t.foldRecomputes, t.foldHits
	return fs
}

// foldEntry is one memoized regrouping result: the merged summary (treated
// immutable, like everything a node holds) and its language's name. The
// summary carries the identity the cache minted for its content
// (interest.Summary.Identity) — the key material for folds that consume it
// one level up.
type foldEntry struct {
	summary *interest.Summary
	lang    uint64
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

// nodeKey names a trie node by what it is a function of: a leaf by its
// member (address key and subscription identity), an interior node by its
// children's ids, 8 bytes per digit position, zero where unpopulated.
type nodeKey struct {
	addr string
	sub  interest.Identity
	kids string
}

// DefaultFoldCacheBound caps live entries in each table of the shared store
// (across both generations). Sustained subscription flux mints fresh fold
// inputs indefinitely; the generational sweep keeps the touched half.
const DefaultFoldCacheBound = 1 << 16

// storeIDs mints process-unique cache identities so fleet-level stats
// can count each shared cache once (a co-hosted fleet shares one through
// tree clones).
var storeIDs atomic.Uint64

// identities mints summary identities, language names, node ids and view
// generations, process-wide and never reused: an identity names one content
// for the life of the process, whichever store minted it.
var identities atomic.Uint64

// gens is one table of the store, bounded by generational sweep: inserts and
// touched entries land in the hot generation; when hot reaches half the
// bound, the cold generation — everything not touched since the last sweep —
// is dropped wholesale. Lookups under a key built from bytes are spelled out
// at the call sites, where a key converted inside the index expression does
// not allocate; get serves the string-keyed tables.
type gens[K comparable, V any] struct {
	hot, cold map[K]V
	evictions uint64
}

// put inserts into the hot generation, sweeping first if it is full (hot and
// cold stay disjoint; live entries never exceed bound).
func (g *gens[K, V]) put(k K, v V, bound int) {
	if g.hot == nil || len(g.hot) >= max(1, bound/2) {
		g.evictions += uint64(len(g.cold))
		g.cold, g.hot = g.hot, make(map[K]V, len(g.hot))
	}
	g.hot[k] = v
}

// promote moves an entry found in cold to hot: touched, it survives the next
// sweep.
func (g *gens[K, V]) promote(k K, v V, bound int) {
	delete(g.cold, k)
	g.put(k, v, bound)
}

// get looks a key up in both generations, promoting a cold hit.
func (g *gens[K, V]) get(k K, bound int) (V, bool) {
	v, ok := g.hot[k]
	if !ok {
		if v, ok = g.cold[k]; ok {
			g.promote(k, v, bound)
		}
	}
	return v, ok
}

// store is what a tree shares with its clones: the regrouping memo,
// the table that gives every summary its identity (keyed by the summary's
// OrderedFingerprint, so equal content — reached through whatever fold — is
// named alike and keys the same folds one level up), the language names
// (keyed by the summary's Fingerprint, which sorts: accumulation order does
// not change what is matched), the interned trie nodes and the interned view
// signatures. Safe for concurrent use: trees cloned across live nodes rebuild
// on their own goroutines.
//
// The store retains no matcher. A view's index is built from the summaries
// when a process first reads the view, and lives on the node only as long as
// some process holds it (node.index).
//
// Every table is bounded by generational sweep (see gens). A dropped entry
// only costs a recompute if its key recurs; correctness never depends on a
// hit, and what a tree holds stays valid when the store forgets it.
// Identities are never given to a second content, so content created again
// after a sweep is named afresh and keys made of the old name miss — they
// can never hit an entry of different inputs.
type store struct {
	mu    sync.Mutex
	id    uint64
	bound int
	folds gens[foldKey, foldEntry]
	ids   gens[string, uint64]
	langs gens[string, uint64]
	nodes gens[nodeKey, *node]
	views gens[string, uint64]
}

func newStore(bound int) *store {
	if bound <= 0 {
		bound = DefaultFoldCacheBound
	}
	return &store{id: storeIDs.Add(1), bound: bound}
}

// fold looks a regrouping up without building its key.
func (st *store) fold(leaf interest.Identity, kids []byte) (foldEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.foldLocked(leaf, kids)
}

func (st *store) foldLocked(leaf interest.Identity, kids []byte) (foldEntry, bool) {
	e, ok := st.folds.hot[foldKey{leaf, string(kids)}]
	if !ok {
		if e, ok = st.folds.cold[foldKey{leaf, string(kids)}]; ok {
			st.folds.promote(foldKey{leaf, string(kids)}, e, st.bound)
		}
	}
	return e, ok
}

// putFold records a fold just computed, unless a racing tree recorded the same
// fold first: then the resident entry is returned (and resident is true), so
// every tree holds one summary per fold and the fold is counted once. A
// summary that is inserted gets its identity here.
func (st *store) putFold(leaf interest.Identity, kids []byte, e foldEntry) (_ foldEntry, resident bool) {
	fp := e.summary.OrderedFingerprint()
	st.mu.Lock()
	defer st.mu.Unlock()
	if prev, ok := st.foldLocked(leaf, kids); ok {
		return prev, true
	}
	id, ok := st.ids.get(fp, st.bound)
	if !ok {
		id = identities.Add(1)
		st.ids.put(fp, id, st.bound)
	}
	e.summary.SetIdentity(id)
	st.folds.put(foldKey{leaf, string(kids)}, e, st.bound)
	return e, false
}

// lang returns the name of the summary's language, minting one when the
// store holds none. View signatures name a line's language by it, and a
// view's index lets lines of one name share bits. Equal names mean equal
// matched languages; a language named again after a sweep gets a new name,
// which only costs a spurious view generation — the safe direction.
func (st *store) lang(s *interest.Summary) uint64 {
	fp := s.Fingerprint()
	st.mu.Lock()
	defer st.mu.Unlock()
	id, ok := st.langs.get(fp, st.bound)
	if !ok {
		id = identities.Add(1)
		st.langs.put(fp, id, st.bound)
	}
	return id
}

// viewIndex returns the index of the view over n's children, building it
// when no live view holds one. The build runs outside the lock; of two racing
// builds the second adopts the first's index, so every holder of the view
// shares one.
func (st *store) viewIndex(n *node) *interest.Index {
	st.mu.Lock()
	x := n.index.Value()
	st.mu.Unlock()
	if x != nil {
		return x
	}
	sums := make([]*interest.Summary, 0, len(n.children))
	langs := make([]uint64, 0, len(n.children))
	for _, child := range n.children {
		if child != nil {
			sums, langs = append(sums, child.summary), append(langs, child.lang)
		}
	}
	built := interest.NewIndex(sums, langs)
	st.mu.Lock()
	defer st.mu.Unlock()
	if x = n.index.Value(); x == nil {
		x = built
		n.index = weak.Make(x)
	}
	return x
}

// node returns the interned node of the key (see nodeKey), nil when the
// store holds none.
func (st *store) node(addr string, sub interest.Identity, kids []byte) *node {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.nodeLocked(addr, sub, kids)
}

func (st *store) nodeLocked(addr string, sub interest.Identity, kids []byte) *node {
	n, ok := st.nodes.hot[nodeKey{addr, sub, string(kids)}]
	if !ok {
		if n, ok = st.nodes.cold[nodeKey{addr, sub, string(kids)}]; ok {
			st.nodes.promote(nodeKey{addr, sub, string(kids)}, n, st.bound)
		}
	}
	return n
}

// intern gives a node just built its id and records it, unless a racing tree
// interned the same key first: then that node is returned, so the trees end
// up sharing it.
func (st *store) intern(addr string, sub interest.Identity, kids []byte, n *node) *node {
	st.mu.Lock()
	defer st.mu.Unlock()
	if prev := st.nodeLocked(addr, sub, kids); prev != nil {
		return prev
	}
	n.id = identities.Add(1)
	st.nodes.put(nodeKey{addr, sub, string(kids)}, n, st.bound)
	return n
}

// viewGen returns the identity of a view signature, minting one for a
// signature the store does not hold.
func (st *store) viewGen(sig []byte) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	id, ok := st.views.hot[string(sig)]
	if !ok {
		if id, ok = st.views.cold[string(sig)]; ok {
			st.views.promote(string(sig), id, st.bound)
		} else {
			id = identities.Add(1)
			st.views.put(string(sig), id, st.bound)
		}
	}
	return id
}

// stats snapshots the store's share of FoldStats.
func (st *store) stats() FoldStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return FoldStats{
		CacheID:           st.id,
		CacheEntries:      len(st.folds.hot) + len(st.folds.cold),
		CacheEvictions:    st.folds.evictions,
		CompilerEntries:   len(st.langs.hot) + len(st.langs.cold),
		CompilerEvictions: st.langs.evictions,
	}
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
	return &Tree{
		cfg:      cfg,
		election: el,
		root:     &node{}, // no regrouping, so not interned
		store:    newStore(cfg.foldCacheBound),
	}, nil
}

// child returns n's subgroup for the digit, nil when unpopulated.
func (n *node) child(digit int) *node {
	if digit < 0 || digit >= len(n.children) {
		return nil
	}
	return n.children[digit]
}

// lookup returns the node for the prefix, or nil.
func (t *Tree) lookup(p addr.Prefix) *node {
	n := t.root
	for i := 1; i <= p.Len() && n != nil; i++ {
		n = n.child(p.Digit(i))
	}
	return n
}

// lookupPath returns the node for a's prefix of the given length, or nil —
// lookup(a.Prefix(length+1)) without building the prefix.
func (t *Tree) lookupPath(a addr.Address, length int) *node {
	if length > a.Depth() {
		return nil
	}
	n := t.root
	for i := 1; i <= length && n != nil; i++ {
		n = n.child(a.Digit(i))
	}
	return n
}

// lookupMember descends to the address's leaf; nil when the address is not
// a member (or is not a full-depth address of this tree). The returned
// value is shared with every tree holding the leaf: never write through it.
func (t *Tree) lookupMember(a addr.Address) *Member {
	if a.Depth() != t.Depth() {
		return nil
	}
	n := t.lookupPath(a, t.Depth())
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
	for _, child := range n.children {
		if child != nil {
			visitMembers(child, fn)
		}
	}
}

// Build constructs a tree over an initial member set: ApplyDelta on an empty
// tree, which is what the live runtime does on its first membership snapshot.
func Build(cfg Config, members []Member) (*Tree, error) {
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := t.ApplyDelta(Delta{Add: members}); err != nil {
		return nil, err
	}
	return t, nil
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

// Clone returns an independent copy of the tree in O(1): a struct copy. The
// trie is immutable and the store and election are shared, so the
// two trees hold the same nodes until a change moves one of them — and meet
// again, node for node, wherever their memberships agree. The point at fleet
// scale: 64k co-hosted processes adopting one bootstrap fold hold ONE trie,
// and a change they all digest builds each new node once. The clone meters
// its own regrouping work from zero.
func (t *Tree) Clone() *Tree {
	c := *t
	c.foldRecomputes, c.foldHits = 0, 0
	return &c
}

// Add inserts a member and rebuilds delegates, counts and summaries along
// its root path.
func (t *Tree) Add(m Member) error { return t.ApplyDelta(Delta{Add: []Member{m}}) }

// Remove deletes a member (leave or exclusion after failure detection) and
// rebuilds its surviving root path.
func (t *Tree) Remove(a addr.Address) error { return t.ApplyDelta(Delta{Remove: []addr.Address{a}}) }

// UpdateSubscription replaces a member's interests and refreshes summaries
// on its root path.
func (t *Tree) UpdateSubscription(a addr.Address, sub interest.Subscription) error {
	return t.ApplyDelta(Delta{Update: []Member{{Addr: a, Sub: sub}}})
}

// Delta is a batch of membership changes applied in one pass over the
// touched prefixes: each is rebuilt exactly once however many of the batch's
// changes lie under it, which is what keeps fleet-scale churn (and the
// initial population of a large tree) cheap. Per address, adds apply before
// updates before removes.
type Delta struct {
	Add    []Member
	Update []Member
	Remove []addr.Address
}

// edit is one change of a batch; after resolution, the one outcome of an
// address: its member, or editRemove for none.
type edit struct {
	addr addr.Address
	sub  interest.Subscription
	kind uint8
}

const (
	editAdd uint8 = iota
	editUpdate
	editRemove
)

// ApplyDelta applies the batch. On error the tree — members, views and
// counters — is exactly as before the call.
func (t *Tree) ApplyDelta(d Delta) error {
	var buf [4]edit // a small batch stays on the stack
	edits := buf[:0]
	if total := len(d.Add) + len(d.Update) + len(d.Remove); total > len(buf) {
		edits = make([]edit, 0, total)
	}
	for _, m := range d.Add {
		if err := t.cfg.Space.Validate(m.Addr); err != nil {
			return fmt.Errorf("%w: %v", ErrSpaceMismatch, err)
		}
		edits = append(edits, edit{m.Addr, m.Sub, editAdd})
	}
	for _, m := range d.Update {
		edits = append(edits, edit{m.Addr, m.Sub, editUpdate})
	}
	for _, a := range d.Remove {
		edits = append(edits, edit{addr: a, kind: editRemove})
	}
	// Stable, so each address's edits keep their add, update, remove order.
	slices.SortStableFunc(edits, func(x, y edit) int { return x.addr.Compare(y.addr) })
	// Resolve every address to its outcome before anything is built: a batch
	// that fails must not have touched the store either.
	resolved := edits[:0]
	for _, e := range edits {
		if len(resolved) == 0 || !e.addr.Equal(resolved[len(resolved)-1].addr) {
			// A new address (resolved trails the read position, so writing
			// it overwrites only edits already read): start from the tree.
			kind := editRemove
			if t.lookupMember(e.addr) != nil {
				kind = editUpdate
			}
			resolved = append(resolved, edit{addr: e.addr, kind: kind})
		}
		last := &resolved[len(resolved)-1]
		switch present := last.kind != editRemove; {
		case e.kind == editAdd && present:
			return fmt.Errorf("%w: %s", ErrDuplicateMember, e.addr)
		case e.kind != editAdd && !present:
			return fmt.Errorf("%w: %s", ErrUnknownMember, e.addr)
		}
		*last = e
	}
	if len(resolved) > 0 {
		t.root = t.apply(t.root, resolved, 0)
	}
	return nil
}

// apply returns the subtree that n (nil for an unpopulated prefix of the
// given length) becomes under the resolved edits, all of which lie beneath
// it, sorted by address; nil when nothing is left. Only touched digits are
// descended into; everything else is shared with n.
func (t *Tree) apply(n *node, edits []edit, length int) *node {
	if length == t.Depth() {
		if e := edits[0]; e.kind != editRemove {
			return t.leaf(e.addr, e.sub)
		}
		return nil
	}
	var buf [16]*node // the child array stays on the stack up to arity 16
	arity := t.cfg.Space.Arity(length + 1)
	kids := buf[:min(arity, len(buf))]
	if arity > len(buf) {
		kids = make([]*node, arity)
	}
	if n != nil {
		copy(kids, n.children)
	}
	for len(edits) > 0 {
		digit, j := edits[0].addr.Digit(length+1), 1
		for j < len(edits) && edits[j].addr.Digit(length+1) == digit {
			j++
		}
		kids[digit] = t.apply(kids[digit], edits[:j], length+1)
		edits = edits[j:]
	}
	return t.interior(kids, length)
}

// fold returns the regrouping of one node's inputs through the shared fold
// cache: the result is a pure function of the ordered child summaries (leaf:
// of the member's subscription), so identical folds — across prefixes,
// across clones, across a whole co-hosted fleet digesting the same churn —
// are computed once and shared. merge accumulates the inputs into a fresh
// summary; it runs only when the fold is not cached.
func (t *Tree) fold(leaf interest.Identity, kids []byte, merge func(*interest.Summary)) foldEntry {
	e, hit := t.store.fold(leaf, kids)
	if !hit {
		s := interest.NewSummary()
		merge(s)
		e, hit = t.store.putFold(leaf, kids, foldEntry{summary: s, lang: t.store.lang(s)})
	}
	if hit {
		t.foldHits++
	} else {
		t.foldRecomputes++
	}
	return e
}

// leaf returns the interned leaf of a member. Every summary in the trie
// comes out of fold, so every one carries the identity its parent's fold is
// keyed by, and a cached fold costs its inputs' identities, never their size.
func (t *Tree) leaf(a addr.Address, sub interest.Subscription) *node {
	ident := sub.Identity()
	if n := t.store.node(a.Key(), ident, nil); n != nil {
		t.foldHits++
		return n
	}
	e := t.fold(ident, nil, func(s *interest.Summary) { s.Add(sub) })
	return t.store.intern(a.Key(), ident, nil, &node{
		member:    &Member{Addr: a, Sub: sub},
		delegates: []addr.Address{a},
		count:     1,
		summary:   e.summary,
		lang:      e.lang,
	})
}

// interior returns the interned node over the given children (indexed by
// digit, nil where unpopulated): served whole from the store when some tree
// built it before — the common case in a fleet digesting one change — and
// otherwise regrouped, elected and signed here. A prefix left without
// children is nil, except the root.
func (t *Tree) interior(kids []*node, length int) *node {
	key := make([]byte, 0, 8*16) // on the stack up to arity 16
	populated := 0
	for _, child := range kids {
		id := uint64(0)
		if child != nil {
			id = child.id
			populated++
		}
		key = binary.LittleEndian.AppendUint64(key, id)
	}
	if populated == 0 && length > 0 {
		return nil
	}
	if n := t.store.node("", interest.Identity{}, key); n != nil {
		t.foldHits++
		return n
	}
	n := &node{children: slices.Clone(kids)}
	candidates := make([]addr.Address, 0, t.cfg.R*populated)
	inputs := make([]byte, 0, 8*16)
	summaries := make([]*interest.Summary, 0, 16)
	sig := make([]byte, 0, 512)
	for digit, child := range kids {
		if child == nil {
			continue
		}
		n.count += child.count
		candidates = append(candidates, child.delegates...)
		inputs = binary.LittleEndian.AppendUint64(inputs, child.summary.Identity())
		summaries = append(summaries, child.summary)
		sig = t.appendViewLine(sig, digit, child)
	}
	e := t.fold(interest.Identity{}, inputs, func(s *interest.Summary) { s.Merge(summaries...) })
	n.summary, n.lang = e.summary, e.lang
	slices.SortFunc(candidates, addr.Address.Compare)
	n.delegates = t.election.Elect(candidates, t.cfg.R)
	n.viewGen = t.store.viewGen(sig)
	return t.store.intern("", interest.Identity{}, key, n)
}

// appendViewLine appends one child's contribution to its parent's view
// signature: everything a view line exposes about the subgroup — digit,
// count, summary language (by the name the store minted, see lang),
// delegates.
func (t *Tree) appendViewLine(sig []byte, digit int, child *node) []byte {
	sig = binary.AppendUvarint(sig, uint64(digit))
	sig = binary.AppendUvarint(sig, uint64(child.count))
	sig = binary.AppendUvarint(sig, child.lang)
	sig = binary.AppendUvarint(sig, uint64(len(child.delegates)))
	for _, d := range child.delegates {
		sig = binary.AppendUvarint(sig, uint64(t.cfg.Space.Index(d)))
	}
	return sig
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

// Generation returns the view generation of the prefix node: the identity
// its store gave to what a view built over this prefix exposes (its
// subgroups' digits, delegates, counts and summary languages). Equal
// generations guarantee the views match events identically, on every tree of
// the store, and changes that re-derive identical lines — the common case
// under skewed subscription flux — leave it unmoved. Unpopulated prefixes,
// leaves and the root of a tree nothing was applied to report 0.
func (t *Tree) Generation(p addr.Prefix) uint64 {
	n := t.lookup(p)
	if n == nil {
		return 0
	}
	return n.viewGen
}

// GenerationAt is Generation(a.Prefix(depth)) — the generation of the view
// a keeps for the depth — without building the prefix.
func (t *Tree) GenerationAt(a addr.Address, depth int) uint64 {
	n := t.lookupPath(a, depth-1)
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
	if !n.summary.Matches(ev) {
		return 0
	}
	total := 0
	for _, child := range n.children {
		total += matchReach(child, ev) // 0 for an unpopulated digit
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
	n := t.lookupPath(a, depth)
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
