package tree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"pmcast/internal/addr"
	"pmcast/internal/interest"
)

// orderedForm is the string a summary was named by as a regrouping input
// before the store keyed it by numbers: its disjuncts' encodings in
// accumulation order, each closed by a zero byte, or a match-all sentinel.
func orderedForm(s *interest.Summary) string {
	if s == nil {
		return ""
	}
	if s.Len() == 0 && !s.IsEmpty() {
		return "\x01*"
	}
	var sb strings.Builder
	for _, d := range s.Disjuncts() {
		sb.WriteString(d.Fingerprint())
		sb.WriteByte(0)
	}
	return sb.String()
}

// languageForm is the string a summary's language was named by before the
// store keyed it by numbers: its disjuncts' encodings sorted and joined, with
// sentinels for match-all and match-nothing. Equal forms accept exactly the
// same events.
func languageForm(s *interest.Summary) string {
	if s.IsEmpty() {
		return "\x00empty"
	}
	if s.Len() == 0 {
		return "\x00all"
	}
	ds := s.Disjuncts()
	fps := make([]string, len(ds))
	for i, d := range ds {
		fps[i] = d.Fingerprint()
	}
	sort.Strings(fps)
	return strings.Join(fps, "\x00")
}

// peekKey is the store's key of the summary — its disjuncts' numbers in
// order, or sorted — as the store would build it now, without minting or
// touching anything; false when one of its identities holds no number.
func peekKey(st *store, s *interest.Summary, sorted bool) (string, bool) {
	ids, all := disjunctIDs(nil, s)
	st.mu.Lock()
	defer st.mu.Unlock()
	if all {
		return matchAllKey, true
	}
	nums := make([]uint64, 0, len(ids))
	for _, d := range ids {
		n, ok := st.disjuncts.hot[d]
		if !ok {
			if n, ok = st.disjuncts.cold[d]; !ok {
				return "", false
			}
		}
		nums = append(nums, n)
	}
	if sorted {
		slices.Sort(nums)
	}
	var key []byte
	for _, n := range nums {
		key = binary.LittleEndian.AppendUint64(key, n)
	}
	return string(key), true
}

// keyNames holds the store's names to what they named over one lineage of
// trees: the content behind every summary key, summary identity and language
// name seen. A name may change for one content after a sweep, but may never
// stand for two.
type keyNames struct {
	ordered, sorted map[string]string // store key → the old string form
	ids, langs      map[uint64]string // summary identity, language name → form
}

func newKeyNames() *keyNames {
	return &keyNames{
		ordered: make(map[string]string), sorted: make(map[string]string),
		ids: make(map[uint64]string), langs: make(map[uint64]string),
	}
}

// check holds the store to its names for the live summaries sums, langs[i]
// being the language name sums[i] was given: every key, identity and name
// stands for one content across the lineage, and among the live summaries
// whose numbers the store holds, keys are equal exactly when the old strings
// are.
func (kn *keyNames) check(t *testing.T, st *store, sums []*interest.Summary, langs []uint64) {
	t.Helper()
	byOrdered, bySorted := make(map[string]string), make(map[string]string)
	for i, s := range sums {
		of, lf := orderedForm(s), languageForm(s)
		if prev, ok := kn.ids[s.Identity()]; ok && prev != of {
			t.Errorf("identity %d names %s and %q", s.Identity(), s, prev)
		}
		kn.ids[s.Identity()] = of
		if prev, ok := kn.langs[langs[i]]; ok && prev != lf {
			t.Errorf("language name %d names %s and %q", langs[i], s, prev)
		}
		kn.langs[langs[i]] = lf
		for _, c := range []struct {
			sorted  bool
			form    string
			seen    map[string]string
			current map[string]string
		}{{false, of, kn.ordered, byOrdered}, {true, lf, kn.sorted, bySorted}} {
			key, ok := peekKey(st, s, c.sorted)
			if !ok {
				continue // a number swept: the next fold mints afresh
			}
			if len(key) > 1+8*interest.DefaultMaxDisjuncts {
				t.Errorf("key of %s is %d bytes, past 1 + 8 × %d", s, len(key), interest.DefaultMaxDisjuncts)
			}
			if prev, ok := c.seen[key]; ok && prev != c.form {
				t.Errorf("sorted=%v: one key names %s and %q", c.sorted, s, prev)
			}
			c.seen[key] = c.form
			if prev, ok := c.current[c.form]; ok && prev != key {
				t.Errorf("sorted=%v: %s is under two keys while its numbers live", c.sorted, s)
			}
			c.current[c.form] = key
		}
	}
}

// keyPool is a subscription pool of every shape a summary key must tell
// apart: numeric points and ranges, a match-all subscription, an
// unsatisfiable one, string sets past 64 values, and one attribute under
// criteria of different kinds.
func keyPool() []interest.Subscription {
	many := make([]string, 70)
	for i := range many {
		many[i] = fmt.Sprintf("v%02d", i)
	}
	pool := []interest.Subscription{
		interest.NewSubscription(),
		interest.NewSubscription().Where("b", interest.OneOf()),
		interest.NewSubscription().Where("b", interest.OneOf(many...)),
		interest.NewSubscription().Where("b", interest.OneOf(many[3:]...)),
		interest.NewSubscription().Where("b", interest.OneOf("x")).Where("c", interest.Gt(1)),
		interest.NewSubscription().Where("b", interest.IsBool(true)),
	}
	for b := int64(0); b < 6; b++ {
		pool = append(pool,
			interest.NewSubscription().Where("b", interest.EqInt(b)),
			interest.NewSubscription().Where("b", interest.EqInt(b)).Where("c", interest.Between(float64(b), 9)))
	}
	return pool
}

// TestSummaryKeysNameWhatStringsNamed: the store's number keys name exactly
// what the old fingerprint strings named. Random summaries — built by Add,
// of the same subscriptions in both orders, and by Merge of earlier ones, so
// regrouped hulls, match-all and empty ones among them — are folded through
// a store whose bound sweeps the numbers table every few folds, and after
// each the live summaries are held to keyNames.check.
func TestSummaryKeysNameWhatStringsNamed(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	pool := keyPool()
	st := newStore(8)
	kn := newKeyNames()
	// draw picks the match-all subscription rarely, since it absorbs every
	// summary it enters, and the unsatisfiable one often enough that some
	// summaries hold nothing else.
	draw := func() interest.Subscription {
		switch k := r.Intn(60); {
		case k == 0:
			return pool[0]
		case k < 15:
			return pool[1]
		default:
			return pool[2+r.Intn(len(pool)-2)]
		}
	}
	var sums []*interest.Summary
	var langs []uint64
	all, empty, regrouped, reordered, folds := 0, 0, 0, 0, uint64(0)
	for step := 0; step < 400; step++ {
		var built []*interest.Summary
		if len(sums) == 0 || r.Intn(2) == 0 {
			// The same subscriptions added in both orders: often one language
			// under two ordered contents, which only the ids key tells apart.
			picks := make([]interest.Subscription, 1+r.Intn(12))
			for i := range picks {
				picks[i] = draw()
			}
			fwd, rev := interest.NewSummary(), interest.NewSummary()
			for i := range picks {
				fwd.Add(picks[i])
				rev.Add(picks[len(picks)-1-i])
			}
			if len(picks) > fwd.Len() && fwd.Len() == fwd.Bound() {
				regrouped++
			}
			if languageForm(fwd) == languageForm(rev) && orderedForm(fwd) != orderedForm(rev) {
				reordered++
			}
			built = append(built, fwd, rev, fwd.Clone())
		} else {
			ins := make([]*interest.Summary, 2+r.Intn(3))
			for i := range ins {
				ins[i] = sums[r.Intn(len(sums))]
			}
			s := interest.NewSummary()
			s.Merge(ins...)
			built = append(built, s)
		}
		sweeps := st.disjuncts.evictions + st.ids.evictions + st.langs.evictions
		named := make([]foldEntry, 0, len(built))
		for _, s := range built {
			// Inputs no earlier fold used, so every fold is inserted and named.
			folds++
			kids := binary.LittleEndian.AppendUint64(nil, folds)
			e, resident := st.putFold(interest.Identity{}, kids, foldEntry{summary: s, lang: st.lang(s)})
			if resident {
				t.Fatalf("step %d: fresh inputs found resident", step)
			}
			switch {
			case s.IsEmpty():
				empty++
			case s.Len() == 0:
				all++
			}
			named = append(named, e)
			sums, langs = append(sums, e.summary), append(langs, e.lang)
			if len(sums) > 24 {
				sums, langs = sums[1:], langs[1:]
			}
			kn.check(t, st, sums, langs)
		}
		// With nothing swept meanwhile, what the store named once it names
		// alike: the clone's content, and the reversed summary's language.
		if len(named) == 3 && sweeps == st.disjuncts.evictions+st.ids.evictions+st.langs.evictions {
			fwd, rev, clone := named[0], named[1], named[2]
			if clone.summary.Identity() != fwd.summary.Identity() {
				t.Errorf("%s is named %d and, cloned, %d", fwd.summary, fwd.summary.Identity(), clone.summary.Identity())
			}
			if languageForm(rev.summary) == languageForm(fwd.summary) && rev.lang != fwd.lang {
				t.Errorf("the language of %s and of %s has names %d and %d", fwd.summary, rev.summary, fwd.lang, rev.lang)
			}
		}
		if t.Failed() {
			t.Fatalf("step %d", step)
		}
	}
	if st.disjuncts.evictions == 0 || st.ids.evictions == 0 || st.langs.evictions == 0 {
		t.Fatalf("bound 8 swept %d numbers, %d identities, %d languages: the sweeps were not exercised",
			st.disjuncts.evictions, st.ids.evictions, st.langs.evictions)
	}
	if all == 0 || empty == 0 || regrouped == 0 || reordered == 0 {
		t.Fatalf("%d match-all, %d empty, %d regrouped and %d reordered summaries: not every shape was exercised",
			all, empty, regrouped, reordered)
	}
}

// TestZipfFleetKeysAreSmall: after a Zipf fleet is folded, every key of the
// identity and language tables is at most 1 + 8 × the summary bound bytes —
// the numbers of at most a bound's disjuncts, or the match-all byte —
// however long the disjuncts' encodings are.
func TestZipfFleetKeysAreSmall(t *testing.T) {
	space := addr.MustRegular(4, 4)
	r := rand.New(rand.NewSource(3))
	topics := rand.NewZipf(r, 1.2, 1, 499)
	members := make([]Member, space.Capacity())
	long := 0
	for i := range members {
		set := make([]string, 2+r.Intn(6))
		for j := range set {
			set[j] = fmt.Sprintf("topic-with-a-long-name-%03d", topics.Uint64())
		}
		sub := interest.NewSubscription().Where("topic", interest.OneOf(set...))
		long = max(long, len(sub.Fingerprint()))
		members[i] = Member{Addr: space.AddressAt(i), Sub: sub}
	}
	tr, err := Build(Config{Space: space, R: 2}, members)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.store
	limit := 1 + 8*interest.DefaultMaxDisjuncts
	for name, g := range map[string]*gens[string, uint64]{"ids": &st.ids, "langs": &st.langs} {
		n := 0
		for _, table := range []map[string]uint64{g.hot, g.cold} {
			for k := range table {
				n++
				if len(k) > limit {
					t.Errorf("%s key of %d bytes, want at most %d", name, len(k), limit)
				}
			}
		}
		if n == 0 {
			t.Errorf("the fleet left the %s table empty", name)
		}
	}
	if long <= limit {
		t.Fatalf("the longest subscription encodes to %d bytes: the test does not exercise long disjuncts", long)
	}
}
