package addr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParse(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    []int
		wantErr bool
	}{
		{name: "ipv4 style", in: "128.178.73.3", want: []int{128, 178, 73, 3}},
		{name: "single component", in: "7", want: []int{7}},
		{name: "zeros", in: "0.0.0", want: []int{0, 0, 0}},
		{name: "empty", in: "", wantErr: true},
		{name: "trailing dot", in: "1.2.", wantErr: true},
		{name: "leading dot", in: ".1.2", wantErr: true},
		{name: "alpha", in: "1.x.2", wantErr: true},
		{name: "negative", in: "1.-2.3", wantErr: true},
		{name: "double dot", in: "1..2", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Parse(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("Parse(%q) = %v, want error", tt.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse(%q) error: %v", tt.in, err)
			}
			if got.Depth() != len(tt.want) {
				t.Fatalf("depth = %d, want %d", got.Depth(), len(tt.want))
			}
			for i, w := range tt.want {
				if got.Digit(i+1) != w {
					t.Errorf("digit %d = %d, want %d", i+1, got.Digit(i+1), w)
				}
			}
		})
	}
}

func TestStringRoundTrip(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		digits := make([]int, len(raw))
		for i, v := range raw {
			digits[i] = int(v)
		}
		a := New(digits...)
		b, err := Parse(a.String())
		return err == nil && a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"1.2.3", "1.2.3", 0},
		{"1.2.3", "1.2.4", -1},
		{"1.2.4", "1.2.3", 1},
		{"1.2", "1.2.0", -1},
		{"2.0.0", "1.9.9", 1},
		{"0.0.1", "0.1.0", -1},
	}
	for _, tt := range tests {
		a, b := MustParse(tt.a), MustParse(tt.b)
		if got := a.Compare(b); got != tt.want {
			t.Errorf("Compare(%s,%s) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
		if got := b.Compare(a); got != -tt.want {
			t.Errorf("Compare(%s,%s) = %d, want %d", tt.b, tt.a, got, -tt.want)
		}
	}
}

func TestCompareIsTotalOrder(t *testing.T) {
	gen := func(r *rand.Rand) Address {
		d := 1 + r.Intn(4)
		digits := make([]int, d)
		for i := range digits {
			digits[i] = r.Intn(4)
		}
		return New(digits...)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b, c := gen(r), gen(r), gen(r)
		// Antisymmetry.
		if a.Compare(b) != -b.Compare(a) {
			t.Fatalf("antisymmetry violated for %s,%s", a, b)
		}
		// Transitivity.
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			t.Fatalf("transitivity violated for %s,%s,%s", a, b, c)
		}
	}
}

func TestPrefixAndDistance(t *testing.T) {
	a := MustParse("128.178.73.3")
	b := MustParse("128.178.88.10")
	c := MustParse("128.178.73.17")
	e := MustParse("3.2.230.23")

	if got := a.CommonPrefixDepth(b); got != 3 {
		t.Errorf("CommonPrefixDepth(a,b) = %d, want 3", got)
	}
	if got := a.CommonPrefixDepth(c); got != 4 {
		t.Errorf("CommonPrefixDepth(a,c) = %d, want 4", got)
	}
	if got := a.CommonPrefixDepth(e); got != 1 {
		t.Errorf("CommonPrefixDepth(a,e) = %d, want 1", got)
	}

	// Distance d−i+1 with i−1 shared components.
	if got := a.Distance(b); got != 2 {
		t.Errorf("Distance(a,b) = %d, want 2", got)
	}
	if got := a.Distance(c); got != 1 {
		t.Errorf("Distance(a,c) = %d, want 1", got)
	}
	if got := a.Distance(e); got != 4 {
		t.Errorf("Distance(a,e) = %d, want 4", got)
	}
	if got := a.Distance(a); got != 0 {
		t.Errorf("Distance(a,a) = %d, want 0", got)
	}

	p := a.Prefix(4)
	if p.String() != "128.178.73" {
		t.Errorf("Prefix(4) = %s, want 128.178.73", p)
	}
	if !p.Contains(a) || !p.Contains(c) || p.Contains(b) {
		t.Errorf("prefix containment wrong: %v %v %v", p.Contains(a), p.Contains(c), p.Contains(b))
	}
	if !a.Prefix(1).Equal(Prefix{}) {
		t.Errorf("Prefix(1) should be root")
	}
}

func TestPrefixChildParent(t *testing.T) {
	p := Prefix{}
	p = p.Child(128)
	p = p.Child(178)
	if p.String() != "128.178" {
		t.Fatalf("child chain = %s", p)
	}
	if p.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", p.Depth())
	}
	if got := p.Parent().String(); got != "128" {
		t.Fatalf("parent = %s, want 128", got)
	}
	if root := (Prefix{}); !root.Parent().Equal(root) {
		t.Fatal("parent of root should be root")
	}
	a := p.Address(73, 3)
	if a.String() != "128.178.73.3" {
		t.Fatalf("Address = %s", a)
	}
}

func TestSpaceValidate(t *testing.T) {
	s, err := NewSpace(4, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Capacity() != 4*8*8 {
		t.Fatalf("capacity = %d", s.Capacity())
	}
	if err := s.Validate(New(3, 7, 7)); err != nil {
		t.Errorf("valid address rejected: %v", err)
	}
	if err := s.Validate(New(4, 0, 0)); err == nil {
		t.Error("digit 4 at arity-4 depth accepted")
	}
	if err := s.Validate(New(1, 2)); err == nil {
		t.Error("short address accepted")
	}
	if err := s.ValidatePrefix(NewPrefix(3, 7)); err != nil {
		t.Errorf("valid prefix rejected: %v", err)
	}
	if err := s.ValidatePrefix(NewPrefix(3, 8)); err == nil {
		t.Error("invalid prefix accepted")
	}
	if _, err := NewSpace(); err == nil {
		t.Error("empty space accepted")
	}
	if _, err := NewSpace(3, 0); err == nil {
		t.Error("zero arity accepted")
	}
	if _, err := Regular(5, 0); err == nil {
		t.Error("zero depth accepted")
	}
}

func TestSpaceIndexRoundTrip(t *testing.T) {
	s := MustRegular(5, 3)
	seen := make(map[int]bool, s.Capacity())
	for i := 0; i < s.Capacity(); i++ {
		a := s.AddressAt(i)
		if err := s.Validate(a); err != nil {
			t.Fatalf("AddressAt(%d) invalid: %v", i, err)
		}
		if got := s.Index(a); got != i {
			t.Fatalf("Index(AddressAt(%d)) = %d", i, got)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
}

func TestIndexPreservesOrder(t *testing.T) {
	s := MustRegular(4, 3)
	for i := 1; i < s.Capacity(); i++ {
		prev, cur := s.AddressAt(i-1), s.AddressAt(i)
		if !prev.Less(cur) {
			t.Fatalf("order not preserved at %d: %s !< %s", i, prev, cur)
		}
	}
}

func TestSubtreeSize(t *testing.T) {
	s := MustRegular(22, 3)
	if got := s.SubtreeSize(0); got != 22*22*22 {
		t.Errorf("SubtreeSize(0) = %d", got)
	}
	if got := s.SubtreeSize(1); got != 22*22 {
		t.Errorf("SubtreeSize(1) = %d", got)
	}
	if got := s.SubtreeSize(3); got != 1 {
		t.Errorf("SubtreeSize(3) = %d", got)
	}
}

func TestMixedRadixSpace(t *testing.T) {
	s, err := NewSpace(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Capacity() != 24 {
		t.Fatalf("capacity = %d", s.Capacity())
	}
	for i := 0; i < s.Capacity(); i++ {
		if got := s.Index(s.AddressAt(i)); got != i {
			t.Fatalf("mixed radix round trip failed at %d: got %d", i, got)
		}
	}
}

func TestKeyUniqueness(t *testing.T) {
	s := MustRegular(3, 3)
	keys := make(map[string]bool)
	for i := 0; i < s.Capacity(); i++ {
		k := s.AddressAt(i).Key()
		if keys[k] {
			t.Fatalf("duplicate key %q", k)
		}
		keys[k] = true
	}
	if key := (Prefix{}).Key(); key != "" {
		t.Errorf("root key = %q, want empty", key)
	}
}
