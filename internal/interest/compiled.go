package interest

import (
	"hash/maphash"
	mbits "math/bits"
	"slices"
	"strings"
	"sync/atomic"
	"unsafe"

	"pmcast/internal/event"
)

// This file is the read side of the matching engine: the Summaries regrouping
// works on — interpretive, merge-walked — are indexed for evaluation. One
// Index covers the lines of a whole view and answers an event for every line
// in one walk of its attributes: the counting algorithm of content-based
// publish/subscribe (Fabret et al., SIGMOD 2001), attribute-major where the
// summaries are conjunction-major. A CompiledMatcher is a handle on one line
// of an Index; Compile and CompileSummary build one-line indexes for tests
// and tools.
//
// The interpretive Matches implementations on Subscription and Summary stay
// exactly as they were: they are the oracle the property and fuzz tests
// hold the index to.

// MatchCounter tallies the work of matcher evaluations: Evals counts
// languages answered — one per distinct non-nil line of an index probe, one
// per interpretive Summary.MatchesCounted call — and Comparisons the
// attribute work inside them. Its unit differs by path: an index counts
// attribute probes (one indexed attribute consulted for one block of 64
// disjuncts, however many of them constrain it), the interpretive path one
// per criterion evaluated. Counters are plain fields; callers own any
// synchronization.
type MatchCounter struct {
	Evals       uint64
	Comparisons uint64
}

// Index is the attribute-major matcher of a set of lines. Every disjunct of
// every line is one bit, 64 to a block; a line's disjuncts hold consecutive
// bits, and lines of one language share one run of them. Per block, and per
// attribute some disjunct of the block constrains, the index keeps the
// disjuncts that leave the attribute free and, per value domain, those a
// value satisfies. A probe starts from all of a block's bits and ANDs in,
// attribute by attribute in name order, the free bits plus those the event's
// value satisfies (only the free ones where the event lacks the attribute),
// stopping once nothing survives; a line matches when any of its bits does.
// The answers are exactly Summary.Matches: the zero Value satisfies nothing,
// kinds never cross, and an empty string set or interval set is
// unsatisfiable. An Index is immutable and safe for concurrent use.
type Index struct {
	blocks  []indexBlock
	lines   []indexLine
	handles []CompiledMatcher
	// seed keys the admitted strings of every block; see strEntry.
	seed maphash.Seed
	// langs is the number of distinct non-nil lines: the Evals of a probe.
	langs uint64
}

// indexLine locates one line: its disjuncts' bits [lo, hi), or a constant —
// all for a match-all summary, and no bits at all (never) for a nil or empty
// one.
type indexLine struct {
	lo, hi int32
	all    bool
}

// indexBlock indexes 64 disjunct bits: bits holds those in use, attrs the
// attributes any of them constrains, sorted by name.
type indexBlock struct {
	bits  uint64
	attrs []indexAttr
}

// indexAttr is one attribute's part of a block. A disjunct's bit is in free
// when the disjunct does not constrain the attribute; otherwise it is in the
// set of the criterion's domain — anyv for the wildcard, strs under each
// admitted string, nums beside its interval set, t or f for a boolean — or,
// for an unsatisfiable criterion, nowhere. setBits holds the disjuncts with
// a nonempty string set, and sets those sets in bit order: the summaries'
// own, which a key match is confirmed against.
type indexAttr struct {
	name          string
	free, anyv    uint64
	t, f, setBits uint64
	strs          []strEntry
	sets          [][]string
	nums          []numBits
}

// strEntry is one admitted string of a block's attribute: its key, and the
// disjuncts whose string set holds it. A key is 48 bits of the string's
// hash above 16 bits that place the string in the set of the entry's lowest
// disjunct (all ones when the place does not fit). A table is sorted by
// key, and its hashes are unique: the build refuses two strings on one
// hash and draws the index's seed again. So a hash match names at most one
// admitted string, and a probe confirms it is the value — one string
// compare at the place, or a search of the set past it — before it takes
// the bits. Every answer stays exact whatever two strings hash alike, and
// the table holds no string: 16 bytes per entry.
type strEntry struct {
	key, bits uint64
}

// placeBits is the width of the place in a key; an entry's place is
// noPlace when the string sits past it.
const (
	placeBits = 16
	noPlace   = 1<<placeBits - 1
)

// numBits is a numeric criterion and the disjuncts holding it.
type numBits struct {
	set  IntervalSet
	bits uint64
}

// keyMask is the hash bits a key keeps: 48. The collision tests narrow it
// to make hashes collide, and count what follows in keyClashes and
// falseKeys.
var keyMask uint64 = 1<<(64-placeBits) - 1

// keyClashes counts seeds a build refused for two strings on one hash, and
// falseKeys probes whose hash matched an admitted string the value is not.
// At 48 bits neither moves in practice.
var keyClashes, falseKeys atomic.Uint64

// maxSeedDraws bounds the seeds one build draws. A 48-bit hash refuses a
// seed for n strings of one table with odds near n²/2⁴⁹, so a build that
// meets this bound means the hash is broken.
const maxSeedDraws = 4096

// key returns s's key under the index's seed, its place bits zero.
func (x *Index) key(s string) uint64 {
	return maphash.String(x.seed, s) & keyMask << placeBits
}

// valueKeys memoises, for one probe, the key of each string value it
// hashed, by the value's position among the event's first 16 attributes:
// blocks past the first ask again for the same values.
type valueKeys struct {
	have uint16
	keys [16]uint64
}

// key returns the key of s, the event's j-th value.
func (vk *valueKeys) key(x *Index, j int, s string) uint64 {
	if j >= len(vk.keys) {
		return x.key(s)
	}
	if vk.have&(1<<j) == 0 {
		vk.keys[j], vk.have = x.key(s), vk.have|1<<j
	}
	return vk.keys[j]
}

// satisfied returns the disjuncts whose criterion on the attribute admits v,
// the event's j-th value.
func (x *Index) satisfied(a *indexAttr, v event.Value, j int, vk *valueKeys) uint64 {
	switch v.Kind() {
	case event.KindInt, event.KindFloat:
		f, _ := v.Numeric()
		s := a.anyv
		for i := range a.nums {
			if a.nums[i].set.Contains(f) {
				s |= a.nums[i].bits
			}
		}
		return s
	case event.KindString:
		if len(a.strs) == 0 {
			return a.anyv
		}
		s, _ := v.AsString()
		return a.anyv | a.admitting(s, vk.key(x, j, s))
	case event.KindBool:
		if b, _ := v.AsBool(); b {
			return a.anyv | a.t
		}
		return a.anyv | a.f
	default:
		return 0 // the zero Value
	}
}

// admitting returns the disjuncts whose string set on the attribute holds
// s, whose key is k.
func (a *indexAttr) admitting(s string, k uint64) uint64 {
	e := a.strs
	i := search(e, k)
	if i == len(e) || e[i].key&^noPlace != k {
		return 0
	}
	low := e[i].bits & -e[i].bits
	set := a.sets[mbits.OnesCount64(a.setBits&(low-1))]
	ok := false
	if place := e[i].key & noPlace; place != noPlace {
		ok = set[place] == s
	} else {
		_, ok = slices.BinarySearch(set, s)
	}
	if !ok {
		falseKeys.Add(1)
		return 0
	}
	return e[i].bits
}

// search returns the index of the first entry of a nonempty table whose
// key is k or more. Hashes spread evenly over the key space, so k's share
// of it guesses its rank to within a few entries: search scans a few from
// there, and only past them searches the rest of that side.
func search(e []strEntry, k uint64) int {
	i := int(k >> 32 * uint64(len(e)) >> 32)
	if e[i].key < k {
		for stop := min(i+8, len(e)); ; {
			if i++; i == stop {
				break
			}
			if e[i].key >= k {
				return i
			}
		}
		return i + lowerBound(e[i:], k)
	}
	for stop := max(i-8, 0); i > stop; i-- {
		if e[i-1].key < k {
			return i
		}
	}
	return lowerBound(e[:i], k)
}

// lowerBound returns the index of the first entry whose key is k or more,
// or len(e): a binary search whose step is a conditional move, not a
// branch, as hashes leave nothing to predict.
func lowerBound(e []strEntry, k uint64) int {
	if len(e) == 0 {
		return 0
	}
	i := 0
	for n := len(e); n > 1; {
		half := n >> 1
		if e[i+half].key < k {
			i += half
		}
		n -= half
	}
	if e[i].key < k {
		i++
	}
	return i
}

// probe returns the bits of mask in block w whose disjuncts the event
// satisfies. An attribute that constrains none of the bits still in the
// running is not consulted.
func (x *Index) probe(w int, ev event.Event, mask uint64, mc *MatchCounter, vk *valueKeys) uint64 {
	b := &x.blocks[w]
	n, j := ev.Len(), 0
	for i := range b.attrs {
		a := &b.attrs[i]
		if mask&^a.free == 0 {
			continue
		}
		if mc != nil {
			mc.Comparisons++
		}
		keep := a.free
		for ; j < n; j++ {
			name, v := ev.AttrAt(j)
			if name >= a.name {
				if name == a.name {
					keep |= x.satisfied(a, v, j, vk)
				}
				break
			}
		}
		if mask &= keep; mask == 0 {
			return 0
		}
	}
	return mask
}

// NewIndex indexes lines: line i matches exactly what sums[i] does, and a nil
// summary matches nothing. Lines whose langs entries are equal and nonzero
// name one language — their summaries must accept the same events — and
// share bits; a nil langs gives every line its own.
func NewIndex(sums []*Summary, langs []uint64) *Index {
	x := &Index{lines: make([]indexLine, len(sums)), handles: make([]CompiledMatcher, len(sums))}
	n := 0
	for i, s := range sums {
		x.handles[i] = CompiledMatcher{x: x, line: i}
		if s == nil {
			continue
		}
		if langs != nil && langs[i] != 0 {
			if j := slices.Index(langs[:i], langs[i]); j >= 0 {
				x.lines[i] = x.lines[j]
				continue
			}
		}
		x.langs++
		if s.matchAll {
			x.lines[i].all = true
			continue
		}
		x.lines[i] = indexLine{lo: int32(n), hi: int32(n + len(s.subs))}
		n += len(s.subs)
	}
	// A line owns its bits when it starts where the lines before it ended;
	// a line sharing a language starts earlier.
	x.blocks = make([]indexBlock, (n+63)/64)
	bit, sets, strs := 0, 0, 0
	for i, s := range sums {
		if l := x.lines[i]; l.hi > l.lo && int(l.lo) == bit {
			for _, sub := range s.subs {
				subSets, subStrs := x.blocks[bit>>6].add(sub, uint64(1)<<(bit&63))
				sets, strs, bit = sets+subSets, strs+subStrs, bit+1
			}
		}
	}
	setRefs := make([][]string, 0, sets)
	for w := range x.blocks {
		blk := &x.blocks[w]
		for i := range blk.attrs {
			a := &blk.attrs[i]
			a.free = blk.bits &^ a.free
			if len(a.sets) > 0 {
				// One exact-sized array holds every attribute's sets.
				setRefs = append(setRefs, a.sets...)
				a.sets = setRefs[len(setRefs)-len(a.sets) : len(setRefs) : len(setRefs)]
			}
		}
	}
	x.indexStrings(strs)
	return x
}

// add gives sub the bit and returns how many nonempty string sets it has,
// and how many strings they hold. While the index builds, an attribute's
// free field holds the bits that constrain it; NewIndex inverts it.
func (blk *indexBlock) add(sub Subscription, bit uint64) (sets, strs int) {
	blk.bits |= bit
	for _, ac := range sub.criteria {
		k, found := slices.BinarySearchFunc(blk.attrs, ac.attr, func(a indexAttr, name string) int {
			return strings.Compare(a.name, name)
		})
		if !found {
			blk.attrs = slices.Insert(blk.attrs, k, indexAttr{name: ac.attr})
		}
		a := &blk.attrs[k]
		a.free |= bit
		switch c := ac.crit; c.kind {
		case kindAny:
			a.anyv |= bit
		case kindNumeric:
			a.addNumeric(c.nums, bit)
		case kindString:
			if len(c.strs) > 0 {
				a.setBits |= bit
				a.sets = append(a.sets, c.strs)
				sets, strs = sets+1, strs+len(c.strs)
			}
		case kindBool:
			if c.b {
				a.t |= bit
			} else {
				a.f |= bit
			}
		}
	}
	return sets, strs
}

// addNumeric records a numeric criterion, beside an equal one already held.
func (a *indexAttr) addNumeric(set IntervalSet, bit uint64) {
	if set.IsEmpty() {
		return
	}
	for i := range a.nums {
		if a.nums[i].set.Equal(set) {
			a.nums[i].bits |= bit
			return
		}
	}
	a.nums = append(a.nums, numBits{set: set, bits: bit})
}

// indexStrings lays out the string tables of every block, which hold total
// strings before the entries of one string merge, under a seed that gives
// each table's strings distinct hashes.
func (x *Index) indexStrings(total int) {
	if total == 0 {
		return
	}
	buf := make([]strEntry, total)
	var tmp []strEntry
	for draws := 1; ; draws++ {
		x.seed = maphash.MakeSeed()
		used, ok := x.fillStrings(buf, &tmp)
		if ok {
			if used < total {
				x.moveStrings(make([]strEntry, used))
			}
			return
		}
		keyClashes.Add(1)
		if draws == maxSeedDraws {
			panic("interest: no seed gives an index's strings distinct keys")
		}
	}
}

// fillStrings builds every block's string tables into buf under the
// current seed and reports the entries used, or false if one table holds
// two strings on one hash; tmp is the sort's scratch, grown as needed. Each
// table is its strings' keys, sorted, with the entries of one string merged
// into one. While it builds, an entry's bits name the string: its
// disjunct's bit (the top six), the set's rank among the attribute's sets
// (the next six) and the string's place in the set.
func (x *Index) fillStrings(buf []strEntry, tmp *[]strEntry) (int, bool) {
	off := 0
	for w := range x.blocks {
		blk := &x.blocks[w]
		for i := range blk.attrs {
			a := &blk.attrs[i]
			if a.setBits == 0 {
				continue
			}
			start := off
			for m, r := a.setBits, 0; m != 0; m, r = m&(m-1), r+1 {
				d := uint64(mbits.TrailingZeros64(m))
				for p, s := range a.sets[r] {
					buf[off] = strEntry{key: x.key(s), bits: d<<58 | uint64(r)<<52 | uint64(p)}
					off++
				}
			}
			t := buf[start:off]
			if len(t) > 64 && len(*tmp) < len(t) {
				*tmp = make([]strEntry, len(t))
			}
			sortByKey(t, *tmp, 56)
			n, ok := mergeStrings(t, a.sets)
			if !ok {
				return 0, false
			}
			a.strs, off = buf[start:start+n:start+n], start+n
		}
	}
	return off, true
}

// sortByKey sorts a table's entries by key, given scratch of at least its
// length. Keys are hashes, so one radix pass on a byte from the top leaves
// runs of a few entries each, which one insertion pass then orders in
// place; a run longer than 64 entries takes a pass on the next byte first.
// The run of one string's entries — at most one per disjunct of the block,
// so at most 64 — is sorted as it stands.
func sortByKey(t, tmp []strEntry, shift uint) {
	for len(t) > 64 {
		var ends [256]int
		for i := range t {
			ends[byte(t[i].key>>shift)]++
		}
		if ends[byte(t[0].key>>shift)] < len(t) {
			for b, sum := 0, 0; b < len(ends); b++ {
				sum += ends[b]
				ends[b] = sum
			}
			for i := len(t) - 1; i >= 0; i-- {
				b := byte(t[i].key >> shift)
				ends[b]--
				tmp[ends[b]] = t[i]
			}
			copy(t, tmp[:len(t)])
			for b := 0; shift > 0 && b < len(ends); b++ {
				end := len(t)
				if b+1 < len(ends) {
					end = ends[b+1]
				}
				if end-ends[b] > 64 {
					sortByKey(t[ends[b]:end], tmp, shift-8)
				}
			}
			break
		}
		if shift == 0 {
			return // one key
		}
		shift -= 8 // a byte all the entries share moves nothing
	}
	for i := 1; i < len(t); i++ {
		for j := i; j > 0 && t[j].key < t[j-1].key; j-- {
			t[j], t[j-1] = t[j-1], t[j]
		}
	}
}

// moveStrings moves every table into buf, which is exactly their size:
// merged strings left the build's buffer longer than its entries.
func (x *Index) moveStrings(buf []strEntry) {
	off := 0
	for w := range x.blocks {
		for i := range x.blocks[w].attrs {
			a := &x.blocks[w].attrs[i]
			if n := copy(buf[off:], a.strs); n > 0 {
				a.strs, off = buf[off:off+n:off+n], off+n
			}
		}
	}
}

// mergeStrings merges the sorted entries of one table in place, the
// entries of one string into one holding its disjuncts' bits, and returns
// how many are left; false if two strings share a hash. sets holds the
// attribute's string sets by rank.
func mergeStrings(t []strEntry, sets [][]string) (int, bool) {
	str := func(e strEntry) string { return sets[e.bits>>52&63][e.bits&(1<<52-1)] }
	n := 0
	for i := 0; i < len(t); n++ {
		low := t[i] // the entry of the lowest disjunct
		bits := uint64(1) << (low.bits >> 58)
		j := i + 1
		for ; j < len(t) && t[j].key == low.key; j++ {
			if str(t[j]) != str(low) {
				return 0, false
			}
			if bits |= 1 << (t[j].bits >> 58); t[j].bits < low.bits {
				low = t[j]
			}
		}
		t[n], i = strEntry{key: low.key | min(low.bits&(1<<52-1), noPlace), bits: bits}, j
	}
	return n, true
}

// footprint returns the bytes the index holds of its own, from lengths and
// capacities: the Index, its lines and handles, the blocks, their
// attributes, and each attribute's string entries, set references and
// numeric pairs. Strings, string sets and interval sets belong to the
// summaries the index was built over and are not counted.
func (x *Index) footprint() int {
	n := int(unsafe.Sizeof(*x)) +
		cap(x.lines)*int(unsafe.Sizeof(indexLine{})) +
		cap(x.handles)*int(unsafe.Sizeof(CompiledMatcher{})) +
		cap(x.blocks)*int(unsafe.Sizeof(indexBlock{}))
	for w := range x.blocks {
		n += cap(x.blocks[w].attrs) * int(unsafe.Sizeof(indexAttr{}))
		for i := range x.blocks[w].attrs {
			a := &x.blocks[w].attrs[i]
			n += cap(a.strs)*int(unsafe.Sizeof(strEntry{})) + cap(a.sets)*int(unsafe.Sizeof([]string{})) +
				cap(a.nums)*int(unsafe.Sizeof(numBits{}))
		}
	}
	return n
}

// Blocks returns the number of words Probe fills.
func (x *Index) Blocks() int { return len(x.blocks) }

// Probe evaluates the event against every line at once, leaving in hits —
// Blocks() words, the caller's scratch — the disjuncts it satisfies, for
// Hit to read. It counts one Eval per distinct non-nil line and one
// Comparison per attribute probe.
func (x *Index) Probe(ev event.Event, hits []uint64, mc *MatchCounter) {
	if mc != nil {
		mc.Evals += x.langs
	}
	var vk valueKeys
	for w := range x.blocks {
		hits[w] = x.probe(w, ev, x.blocks[w].bits, mc, &vk)
	}
}

// Hit reports whether the line matched, given the hits a Probe left.
func (x *Index) Hit(hits []uint64, line int) bool {
	l := &x.lines[line]
	if l.all {
		return true
	}
	for lo := l.lo; lo < l.hi; {
		end := min(l.hi, (lo|63)+1)
		if hits[lo>>6]&span(lo, end) != 0 {
			return true
		}
		lo = end
	}
	return false
}

// span returns the bits [lo, hi) of lo's block; hi is at most its end.
func span(lo, hi int32) uint64 {
	return ^uint64(0) >> (64 - (hi - lo)) << (lo & 63)
}

// Line returns the handle on one line.
func (x *Index) Line(line int) *CompiledMatcher { return &x.handles[line] }

// CompiledMatcher is a handle on one line of an Index: it answers for that
// line alone, probing only the attributes the line's own disjuncts
// constrain. The nil matcher matches nothing. Safe for concurrent use.
type CompiledMatcher struct {
	x    *Index
	line int
}

// Matches reports whether the line's summary matches the event.
func (m *CompiledMatcher) Matches(ev event.Event) bool {
	if m == nil {
		return false
	}
	l := &m.x.lines[m.line]
	if l.all {
		return true
	}
	var vk valueKeys
	for lo := l.lo; lo < l.hi; {
		end := min(l.hi, (lo|63)+1)
		if m.x.probe(int(lo>>6), ev, span(lo, end), nil, &vk) != 0 {
			return true
		}
		lo = end
	}
	return false
}

// Compile indexes one subscription. The empty (match-all) subscription
// matches every event; one with an unsatisfiable criterion still compiles
// and never matches, keeping the answers equal to Subscription.Matches.
func Compile(s Subscription) *CompiledMatcher {
	return NewIndex([]*Summary{{subs: []Subscription{s}}}, nil).Line(0)
}

// CompileSummary indexes one summary's disjunction.
func CompileSummary(s *Summary) *CompiledMatcher {
	return NewIndex([]*Summary{s}, nil).Line(0)
}

// Fingerprint returns the canonical identity of the subscription's matched
// language: the wire encoding, which is already canonical (criteria sorted
// by attribute, interval sets normalized, string sets sorted and deduped).
// It is the string Identity stands for, encoded once per value.
func (s Subscription) Fingerprint() string {
	return s.Identity().h.Value()
}
