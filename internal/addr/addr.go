// Package addr implements the hierarchical addressing scheme underlying
// pmcast (Eugster & Guerraoui, DSN 2002, Section 2.2).
//
// An address is a sequence of digit values
//
//	x(1).x(2).….x(d),  0 ≤ x(i) ≤ a_i − 1,
//
// mirroring IP or (reversed) DNS names. A prefix of depth i is the partial
// address x(1).….x(i−1); all processes sharing a prefix form the subgroup the
// prefix denotes. The distance between two processes is d−i+1 where i is the
// depth of their longest common prefix: topologically close processes share
// long prefixes.
package addr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Errors returned by address parsing and validation.
var (
	ErrEmpty       = errors.New("addr: empty address")
	ErrDigitRange  = errors.New("addr: digit out of range")
	ErrDepth       = errors.New("addr: wrong number of components")
	ErrBadSyntax   = errors.New("addr: malformed address string")
	ErrZeroArity   = errors.New("addr: arity must be positive")
	ErrInvalidSpec = errors.New("addr: invalid space specification")
)

// Address is a fully qualified process address: exactly d digit components.
// Addresses are immutable values; the zero value is the (invalid) empty
// address.
//
// An Address is one pointer word. Every envelope, queued send, membership
// record, gossip entry and tree line carries one, so the digits and the
// dotted key live once, behind the pointer, and copying an address copies a
// word. The leading zero-size func field keeps the type non-comparable: ==
// on two addresses would compare identity, not digits, so it must not
// compile — use Equal or Compare.
type Address struct {
	_ [0]func()
	r *rep // nil for the zero address
}

// rep is an address's shared, immutable representation.
type rep struct {
	// key is the dotted rendering, precomputed at construction: addresses
	// serve as map keys on every hot path (routing, membership, trees) and
	// rebuilding the string each time dominated fleet-scale profiles.
	key    string
	digits []int
}

// newRep allocates a representation for n digits. Up to depth 8 —
// every space this repository runs — the digits share the rep's object, so
// a constructed address costs two allocations: this one and its key.
func newRep(n int) *rep {
	switch {
	case n <= 4:
		x := new(struct {
			rep
			inline [4]int
		})
		x.digits = x.inline[:n:n]
		return &x.rep
	case n <= 8:
		x := new(struct {
			rep
			inline [8]int
		})
		x.digits = x.inline[:n:n]
		return &x.rep
	}
	return &rep{digits: make([]int, n)}
}

// seal renders r's key once its digits are filled in. No digits is the zero
// address.
func (r *rep) seal() Address {
	if len(r.digits) == 0 {
		return Address{}
	}
	r.key = renderDigits(r.digits)
	return Address{r: r}
}

// renderDigits renders the dotted form with a single allocation (the string)
// for keys up to 64 bytes.
func renderDigits(digits []int) string {
	var buf [64]byte
	b := buf[:0]
	for i, v := range digits {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// New builds an address from the given digit components. The slice is copied.
func New(digits ...int) Address {
	r := newRep(len(digits))
	copy(r.digits, digits)
	return r.seal()
}

// Parse parses a dotted decimal address such as "128.178.73.3".
func Parse(s string) (Address, error) {
	if s == "" {
		return Address{}, ErrEmpty
	}
	r := newRep(strings.Count(s, ".") + 1)
	for i := range r.digits {
		p, rest, _ := strings.Cut(s, ".")
		s = rest
		v, err := strconv.Atoi(p)
		if err != nil || p == "" {
			return Address{}, fmt.Errorf("%w: component %d %q", ErrBadSyntax, i+1, p)
		}
		if v < 0 {
			return Address{}, fmt.Errorf("%w: component %d is negative", ErrDigitRange, i+1)
		}
		r.digits[i] = v
	}
	return r.seal(), nil
}

// MustParse is Parse that panics on error; intended for constants in tests
// and examples.
func MustParse(s string) Address {
	a, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return a
}

// digits returns the address's components (nil for the zero address).
func (a Address) digits() []int {
	if a.r == nil {
		return nil
	}
	return a.r.digits
}

// Depth returns the number of components d of the address.
func (a Address) Depth() int { return len(a.digits()) }

// Digit returns component x(i) using the paper's 1-based indexing
// (1 ≤ i ≤ Depth). It panics when i is out of range, as would indexing a
// slice.
func (a Address) Digit(i int) int { return a.digits()[i-1] }

// IsZero reports whether the address is the empty (invalid) address.
func (a Address) IsZero() bool { return a.r == nil }

// Prefix returns the prefix of depth i, i.e. the partial address
// x(1).….x(i−1). Prefix(1) is the empty (root) prefix; Prefix(Depth()+1) is
// the whole address viewed as a prefix. The prefix key is sliced from the
// address's precomputed key, so walking an address's whole root path (as
// incremental tree maintenance does per membership change) renders nothing.
func (a Address) Prefix(i int) Prefix {
	ds := a.digits()
	if i < 1 || i > len(ds)+1 {
		panic(fmt.Sprintf("addr: prefix depth %d out of range for depth-%d address", i, len(ds)))
	}
	if i == 1 {
		return Prefix{}
	}
	d := make([]int, i-1)
	copy(d, ds)
	key := a.r.key
	for idx, comps := 0, 0; idx < len(key); idx++ {
		if key[idx] == '.' {
			if comps++; comps == i-1 {
				key = key[:idx]
				break
			}
		}
	}
	return Prefix{digits: d, key: key}
}

// HasPrefix reports whether p is a prefix of a.
func (a Address) HasPrefix(p Prefix) bool {
	ds := a.digits()
	if len(p.digits) > len(ds) {
		return false
	}
	for i, v := range p.digits {
		if ds[i] != v {
			return false
		}
	}
	return true
}

// Compare orders addresses lexicographically by components; shorter addresses
// precede longer ones with equal leading components. It returns −1, 0 or +1.
// Delegate election uses this order ("the R processes with the smallest
// addresses", Section 2.2).
func (a Address) Compare(b Address) int {
	if a.r == b.r {
		return 0
	}
	ad, bd := a.digits(), b.digits()
	n := min(len(ad), len(bd))
	for i := 0; i < n; i++ {
		switch {
		case ad[i] < bd[i]:
			return -1
		case ad[i] > bd[i]:
			return 1
		}
	}
	switch {
	case len(ad) < len(bd):
		return -1
	case len(ad) > len(bd):
		return 1
	}
	return 0
}

// Equal reports whether the two addresses are identical.
func (a Address) Equal(b Address) bool { return a.Compare(b) == 0 }

// Less reports whether a orders before b.
func (a Address) Less(b Address) bool { return a.Compare(b) < 0 }

// CommonPrefixDepth returns the depth i of the deepest prefix shared by a and
// b; that is, the largest i such that a.Prefix(i) == b.Prefix(i). The result
// is at least 1 (the empty root prefix is always shared).
func (a Address) CommonPrefixDepth(b Address) int {
	ad, bd := a.digits(), b.digits()
	n := min(len(ad), len(bd))
	i := 0
	for i < n && ad[i] == bd[i] {
		i++
	}
	return i + 1
}

// Distance returns the paper's distance metric between two processes of equal
// depth d: d − i + 1 where i−1 components are shared. Equal addresses have
// distance 0.
func (a Address) Distance(b Address) int {
	if a.Equal(b) {
		return 0
	}
	shared := a.CommonPrefixDepth(b) - 1
	return a.Depth() - shared
}

// String renders the address in dotted form, e.g. "128.178.73.3".
func (a Address) String() string {
	if a.r == nil {
		return "<zero>"
	}
	return a.r.key
}

// Key returns a canonical comparable map key for the address: the dotted
// rendering, precomputed at construction ("" for the zero address).
func (a Address) Key() string {
	if a.r == nil {
		return ""
	}
	return a.r.key
}

// Prefix is a partial address x(1).….x(i−1) denoting a subgroup of depth i.
// The empty prefix denotes the root group.
type Prefix struct {
	digits []int
	// key caches the dotted rendering when the prefix was carved from a
	// keyed Address; identity lives in digits alone (see Equal).
	key string
}

// Depth returns the subgroup depth the prefix denotes: len+1, so the root
// prefix has depth 1.
func (p Prefix) Depth() int { return len(p.digits) + 1 }

// Len returns the number of fixed components.
func (p Prefix) Len() int { return len(p.digits) }

// Digit returns component x(i), 1-based, 1 ≤ i ≤ Len.
func (p Prefix) Digit(i int) int { return p.digits[i-1] }

// Child returns the prefix extended by one more digit.
func (p Prefix) Child(digit int) Prefix {
	d := make([]int, len(p.digits)+1)
	copy(d, p.digits)
	d[len(p.digits)] = digit
	return Prefix{digits: d}
}

// Parent returns the prefix with the last digit removed. The parent of the
// root prefix is the root prefix itself.
func (p Prefix) Parent() Prefix {
	if len(p.digits) == 0 {
		return p
	}
	d := make([]int, len(p.digits)-1)
	copy(d, p.digits[:len(p.digits)-1])
	return Prefix{digits: d}
}

// Address completes the prefix with the given remaining digits into a full
// address.
func (p Prefix) Address(rest ...int) Address {
	r := newRep(len(p.digits) + len(rest))
	copy(r.digits[copy(r.digits, p.digits):], rest)
	return r.seal()
}

// Contains reports whether address a lies inside the subgroup denoted by p.
func (p Prefix) Contains(a Address) bool { return a.HasPrefix(p) }

// Equal reports whether two prefixes are identical.
func (p Prefix) Equal(q Prefix) bool {
	if len(p.digits) != len(q.digits) {
		return false
	}
	for i, v := range p.digits {
		if q.digits[i] != v {
			return false
		}
	}
	return true
}

// String renders the prefix in dotted form; the root prefix renders as "∅".
func (p Prefix) String() string {
	if len(p.digits) == 0 {
		return "∅"
	}
	return p.Key()
}

// Key returns a canonical comparable map key for the prefix ("" for the
// root prefix).
func (p Prefix) Key() string {
	if len(p.digits) == 0 {
		return ""
	}
	if p.key != "" {
		return p.key
	}
	return renderDigits(p.digits)
}

// Space describes a bounded address space: d components with arities
// a_1,…,a_d (Eq. 1). The maximum number of addresses is the product of the
// arities.
type Space struct {
	arities []int
}

// NewSpace builds an address space with the given per-depth arities.
func NewSpace(arities ...int) (Space, error) {
	if len(arities) == 0 {
		return Space{}, fmt.Errorf("%w: no arities", ErrInvalidSpec)
	}
	as := make([]int, len(arities))
	for i, a := range arities {
		if a <= 0 {
			return Space{}, fmt.Errorf("%w: arity %d at depth %d", ErrZeroArity, a, i+1)
		}
		as[i] = a
	}
	return Space{arities: as}, nil
}

// Regular builds the regular space of the paper's analysis model (Eq. 6):
// depth d with constant arity a at every level; capacity n = a^d.
func Regular(a, d int) (Space, error) {
	if d <= 0 {
		return Space{}, fmt.Errorf("%w: depth %d", ErrInvalidSpec, d)
	}
	arities := make([]int, d)
	for i := range arities {
		arities[i] = a
	}
	return NewSpace(arities...)
}

// MustRegular is Regular that panics on error.
func MustRegular(a, d int) Space {
	s, err := Regular(a, d)
	if err != nil {
		panic(err)
	}
	return s
}

// Depth returns the number of address components d.
func (s Space) Depth() int { return len(s.arities) }

// Arity returns a_i for 1 ≤ i ≤ Depth.
func (s Space) Arity(i int) int { return s.arities[i-1] }

// Capacity returns the maximum number of distinct addresses, ∏ a_i.
func (s Space) Capacity() int {
	n := 1
	for _, a := range s.arities {
		n *= a
	}
	return n
}

// Validate checks that the address fits the space (depth and digit ranges).
func (s Space) Validate(a Address) error {
	if a.Depth() != s.Depth() {
		return fmt.Errorf("%w: got %d, want %d", ErrDepth, a.Depth(), s.Depth())
	}
	for i := 1; i <= s.Depth(); i++ {
		if d := a.Digit(i); d < 0 || d >= s.Arity(i) {
			return fmt.Errorf("%w: digit %d at depth %d (arity %d)", ErrDigitRange, d, i, s.Arity(i))
		}
	}
	return nil
}

// ValidatePrefix checks that the prefix fits the space.
func (s Space) ValidatePrefix(p Prefix) error {
	if p.Len() > s.Depth() {
		return fmt.Errorf("%w: prefix longer than space depth", ErrDepth)
	}
	for i := 1; i <= p.Len(); i++ {
		if d := p.Digit(i); d < 0 || d >= s.Arity(i) {
			return fmt.Errorf("%w: digit %d at depth %d (arity %d)", ErrDigitRange, d, i, s.Arity(i))
		}
	}
	return nil
}

// Index maps an address to its rank in lexicographic order within the space,
// in [0, Capacity). The mapping is the mixed-radix value of the digits.
func (s Space) Index(a Address) int {
	idx := 0
	for i := 1; i <= s.Depth(); i++ {
		idx = idx*s.Arity(i) + a.Digit(i)
	}
	return idx
}

// AddressAt is the inverse of Index: it returns the address whose
// lexicographic rank is idx.
func (s Space) AddressAt(idx int) Address {
	r := newRep(s.Depth())
	for i := s.Depth(); i >= 1; i-- {
		a := s.Arity(i)
		r.digits[i-1] = idx % a
		idx /= a
	}
	return r.seal()
}

// SubtreeSize returns the number of addresses covered by a prefix of the
// given length (number of fixed digits).
func (s Space) SubtreeSize(prefixLen int) int {
	n := 1
	for i := prefixLen + 1; i <= s.Depth(); i++ {
		n *= s.Arity(i)
	}
	return n
}
