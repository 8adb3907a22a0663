package interest

import (
	"math/rand"
	"testing"

	"pmcast/internal/event"
)

// paperSub builds "b = 2, c > 40.0, z = 20000" — the 128.178.73.3 line of the
// paper's Figure 2 depth-4 view.
func paperSub() Subscription {
	return NewSubscription().
		Where("b", EqInt(2)).
		Where("c", Gt(40.0)).
		Where("z", EqInt(20000))
}

func TestSubscriptionMatches(t *testing.T) {
	sub := paperSub()
	tests := []struct {
		name string
		ev   event.Event
		want bool
	}{
		{
			name: "all criteria satisfied",
			ev:   event.NewBuilder().Int("b", 2).Float("c", 41.0).Int("z", 20000).Build(event.ID{}),
			want: true,
		},
		{
			name: "one criterion fails",
			ev:   event.NewBuilder().Int("b", 3).Float("c", 41.0).Int("z", 20000).Build(event.ID{}),
			want: false,
		},
		{
			name: "missing attribute fails",
			ev:   event.NewBuilder().Int("b", 2).Float("c", 41.0).Build(event.ID{}),
			want: false,
		},
		{
			name: "extra attributes ignored",
			ev:   event.NewBuilder().Int("b", 2).Float("c", 41.0).Int("z", 20000).Str("e", "??").Build(event.ID{}),
			want: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := sub.Matches(tt.ev); got != tt.want {
				t.Errorf("Matches = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestZeroSubscriptionMatchesAll(t *testing.T) {
	var s Subscription
	if !s.Matches(event.NewBuilder().Int("x", 1).Build(event.ID{})) {
		t.Error("zero subscription should match everything")
	}
	if !s.IsMatchAll() {
		t.Error("zero subscription not match-all")
	}
	// Where on the zero value must not mutate it.
	s2 := s.Where("b", Gt(0))
	if !s.IsMatchAll() {
		t.Error("Where mutated receiver")
	}
	if s2.IsMatchAll() {
		t.Error("Where lost the criterion")
	}
}

func TestWhereWildcardRemoves(t *testing.T) {
	s := NewSubscription().Where("b", Gt(0)).Where("b", Any())
	if !s.IsMatchAll() {
		t.Error("wildcard Where should drop the constraint")
	}
}

func TestSubscriptionSubsumes(t *testing.T) {
	base := NewSubscription().Where("b", Gt(0))
	tighter := NewSubscription().Where("b", Gt(3)).Where("c", Lt(10))
	unrelated := NewSubscription().Where("e", OneOf("Tom"))

	if !base.Subsumes(tighter) {
		t.Error("b>0 should subsume b>3 ∧ c<10")
	}
	if tighter.Subsumes(base) {
		t.Error("tighter should not subsume looser")
	}
	if base.Subsumes(unrelated) || unrelated.Subsumes(base) {
		t.Error("unrelated subscriptions should not subsume")
	}
	if !NewSubscription().Subsumes(tighter) {
		t.Error("match-all should subsume everything")
	}
	empty := NewSubscription().Where("b", OneOf()) // unsatisfiable on a numeric? OneOf() is empty string set
	if !tighter.Subsumes(empty) {
		t.Error("anything should subsume the empty subscription")
	}
}

func TestSubscriptionSubsumesImpliesMatchSubset(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	randomSub := func() Subscription {
		s := NewSubscription()
		if r.Intn(2) == 0 {
			lo := float64(r.Intn(10))
			s = s.Where("b", Between(lo, lo+float64(1+r.Intn(10))))
		}
		if r.Intn(2) == 0 {
			s = s.Where("c", Gt(float64(r.Intn(10))))
		}
		if r.Intn(2) == 0 {
			names := []string{"Ann", "Bob", "Tom"}
			s = s.Where("e", OneOf(names[:1+r.Intn(3)]...))
		}
		return s
	}
	randomEvent := func() event.Event {
		names := []string{"Ann", "Bob", "Tom", "Zoe"}
		return event.NewBuilder().
			Float("b", float64(r.Intn(25))-2).
			Float("c", float64(r.Intn(25))-2).
			Str("e", names[r.Intn(4)]).
			Build(event.ID{})
	}
	for trial := 0; trial < 500; trial++ {
		a, b := randomSub(), randomSub()
		if !a.Subsumes(b) {
			continue
		}
		for probe := 0; probe < 40; probe++ {
			ev := randomEvent()
			if b.Matches(ev) && !a.Matches(ev) {
				t.Fatalf("a=%v subsumes b=%v but misses event %v matched by b", a, b, ev)
			}
		}
	}
}

func TestHullWith(t *testing.T) {
	a := NewSubscription().Where("b", EqInt(2)).Where("c", Gt(40))
	b := NewSubscription().Where("b", EqInt(5)).Where("e", OneOf("Tom"))
	h := a.HullWith(b)

	// b constrained by both: union kept.
	if got := h.Criterion("b"); !got.Matches(event.Int(2)) || !got.Matches(event.Int(5)) || got.Matches(event.Int(3)) {
		t.Errorf("hull b criterion = %v", got)
	}
	// c and e constrained by one side only: dropped (widened).
	if !h.Criterion("c").IsAny() || !h.Criterion("e").IsAny() {
		t.Error("one-sided attributes should widen to wildcard")
	}
	// Hull must subsume both operands.
	if !h.Subsumes(a) || !h.Subsumes(b) {
		t.Error("hull does not subsume operands")
	}
}

func TestSubscriptionString(t *testing.T) {
	s := paperSub()
	want := "b = 2, c > 40, z = 20000"
	if got := s.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := NewSubscription().String(); got != "*" {
		t.Errorf("match-all String = %q", got)
	}
}

func TestSubscriptionIsEmpty(t *testing.T) {
	if paperSub().IsEmpty() {
		t.Error("live subscription empty")
	}
	if !NewSubscription().Where("e", OneOf()).IsEmpty() {
		t.Error("unsatisfiable subscription not empty")
	}
}

func TestSubscriptionAttrsSorted(t *testing.T) {
	s := NewSubscription().Where("z", EqInt(1)).Where("a", EqInt(2)).Where("m", EqInt(3))
	attrs := s.Attrs()
	want := []string{"a", "m", "z"}
	for i := range want {
		if attrs[i] != want[i] {
			t.Fatalf("attrs = %v", attrs)
		}
	}
}

// TestSubscriptionIdentity pins what an Identity promises: it is equal
// exactly when the canonical encodings are — whatever route built the value
// (construction order, a wire round trip, a copy) — and a value derived from
// a copy starts its own memo instead of inheriting the original's.
func TestSubscriptionIdentity(t *testing.T) {
	a := paperSub()
	reordered := NewSubscription().
		Where("z", EqInt(20000)).
		Where("c", Gt(40.0)).
		Where("b", EqInt(2))
	var decoded Subscription
	if err := decoded.UnmarshalBinary([]byte(a.Fingerprint())); err != nil {
		t.Fatal(err)
	}
	for name, same := range map[string]Subscription{
		"copy": a, "clone": a.clone(), "reordered": reordered, "decoded": decoded,
	} {
		if same.Identity() != a.Identity() {
			t.Errorf("%s: equal encodings, different identities", name)
		}
	}
	if NewSubscription().Identity() != a.Where("b", Any()).Where("c", Any()).Where("z", Any()).Identity() {
		t.Error("match-all reached by removing every constraint differs from the zero subscription's identity")
	}

	// Where on a copy, after the original's identity was memoized.
	cp := a
	b := cp.Where("b", EqInt(3))
	if b.Identity() == a.Identity() || b.Fingerprint() == a.Fingerprint() {
		t.Error("a re-constrained copy kept the original's identity")
	}
	if a.Identity() != paperSub().Identity() || a.String() != paperSub().String() {
		t.Error("deriving from a copy disturbed the original")
	}
	if hull := a.HullWith(b); hull.Identity() == a.Identity() || hull.Identity() == b.Identity() {
		t.Error("a hull shares an operand's identity")
	}

	// Distinct languages never share an identity, equal ones always do.
	r := rand.New(rand.NewSource(7))
	byFP := make(map[string]Identity)
	byID := make(map[Identity]string)
	for i := 0; i < 500; i++ {
		s := NewSubscription()
		for _, attr := range []string{"a", "b", "c"}[:1+r.Intn(3)] {
			s = s.Where(attr, EqInt(int64(r.Intn(3))))
		}
		fp, id := string(AppendSubscription(nil, s)), s.Identity()
		if s.WireSize() != len(fp) {
			t.Fatalf("WireSize = %d, encoded %d bytes", s.WireSize(), len(fp))
		}
		if prev, ok := byFP[fp]; ok && prev != id {
			t.Fatalf("encoding %q named twice", fp)
		}
		if prev, ok := byID[id]; ok && prev != fp {
			t.Fatalf("one identity names encodings %q and %q", prev, fp)
		}
		byFP[fp], byID[id] = id, fp
	}
}

// TestSummaryIdentityDroppedOnChange: a name stands for content, so
// changing the content must drop it.
func TestSummaryIdentityDroppedOnChange(t *testing.T) {
	s := Summarize(paperSub())
	s.SetIdentity(7)
	if s.Identity() != 7 {
		t.Fatalf("identity %d, want 7", s.Identity())
	}
	if c := s.Clone(); c.Identity() != 0 {
		t.Error("a clone — a fresh accumulator — inherited the identity")
	}
	s.Add(NewSubscription().Where("q", EqInt(1)))
	if s.Identity() != 0 {
		t.Error("Add kept the identity of the previous content")
	}
	s.SetIdentity(8)
	s.Merge(Summarize(NewSubscription()))
	if s.Identity() != 0 {
		t.Error("Merge kept the identity of the previous content")
	}
	if (*Summary)(nil).Identity() != 0 {
		t.Error("nil summary has an identity")
	}
}

// TestCodecRejectsTrailingBytes: a value decodes from exactly its encoding;
// bytes after it are an error, not ignored.
func TestCodecRejectsTrailingBytes(t *testing.T) {
	sub := paperSub()
	sum := Summarize(sub, NewSubscription().Where("e", OneOf("Tom")))
	for name, tc := range map[string]struct {
		data []byte
		into interface{ UnmarshalBinary([]byte) error }
	}{
		"subscription": {AppendSubscription(nil, sub), new(Subscription)},
		"summary":      {AppendSummary(nil, sum), new(Summary)},
	} {
		if err := tc.into.UnmarshalBinary(tc.data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, junk := range [][]byte{{0}, {0, 0}} {
			if err := tc.into.UnmarshalBinary(append(tc.data[:len(tc.data):len(tc.data)], junk...)); err == nil {
				t.Errorf("%s with %d trailing bytes decoded with no error", name, len(junk))
			}
		}
	}
}
