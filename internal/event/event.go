// Package event defines the typed events disseminated by pmcast.
//
// Content-based publish/subscribe applications describe interests through
// criteria on event attributes (paper Section 1, Figure 2: integer attribute
// b, float c, string e, integer z). Events here are flat attribute maps with
// typed values, plus a unique identifier used for duplicate suppression and
// gossip bookkeeping.
//
// An Event is a pointer to an immutable representation that holds the
// identifier, the attributes sorted by name, and the event's encoded size,
// computed once when the event is built or decoded. Gossip buffers, round
// envelopes and delivery queues copy an event as one word, and the encoders
// read its size instead of walking its attributes.
package event

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"pmcast/internal/binenc"
)

// Kind enumerates attribute value types. Kinds start at 1 so the zero Value
// is distinguishable as invalid.
type Kind int

// Supported attribute kinds.
const (
	KindInt Kind = iota + 1
	KindFloat
	KindString
	KindBool
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// Value is a typed attribute value: exactly one of the variants is active,
// selected by Kind. The zero Value is invalid.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

// Int builds an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float builds a floating point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String builds a string value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool builds a boolean value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind returns the value's kind; the zero Value returns 0.
func (v Value) Kind() Kind { return v.kind }

// IsZero reports whether the value is the invalid zero Value.
func (v Value) IsZero() bool { return v.kind == 0 }

// AsInt returns the integer payload; ok is false for other kinds.
func (v Value) AsInt() (int64, bool) { return v.i, v.kind == KindInt }

// AsFloat returns the float payload; ok is false for other kinds.
func (v Value) AsFloat() (float64, bool) { return v.f, v.kind == KindFloat }

// AsString returns the string payload; ok is false for other kinds.
func (v Value) AsString() (string, bool) { return v.s, v.kind == KindString }

// AsBool returns the boolean payload; ok is false for other kinds.
func (v Value) AsBool() (bool, bool) { return v.b, v.kind == KindBool }

// Numeric returns the value as a float64 for numeric kinds (int or float);
// ok is false otherwise. Predicates on numeric attributes compare through
// this view so that int and float values interoperate (the paper's interests
// mix integer and float criteria freely).
func (v Value) Numeric() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// Equal reports deep equality of two values (kind and payload).
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		// Int/float cross-kind numeric equality is intentional: the paper's
		// interests treat numeric attributes uniformly.
		vn, vok := v.Numeric()
		wn, wok := w.Numeric()
		return vok && wok && vn == wn
	}
	switch v.kind {
	case KindInt:
		return v.i == w.i
	case KindFloat:
		return v.f == w.f
	case KindString:
		return v.s == w.s
	case KindBool:
		return v.b == w.b
	default:
		return true // both zero
	}
}

// String renders the value for debugging and view tables.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindBool:
		return strconv.FormatBool(v.b)
	default:
		return "<invalid>"
	}
}

// ID uniquely identifies an event within a group. Publishers assign IDs from
// their address and a local sequence number, which makes IDs unique without
// coordination.
type ID struct {
	// Origin is the canonical address string of the publisher.
	Origin string
	// Seq is the publisher-local sequence number.
	Seq uint64
}

// String renders the ID as "origin#seq".
func (id ID) String() string { return id.Origin + "#" + strconv.FormatUint(id.Seq, 10) }

// IsZero reports whether the ID is unset.
func (id ID) IsZero() bool { return id.Origin == "" && id.Seq == 0 }

// attr is one named attribute. Events store their attributes as a slice
// sorted by name rather than a map: events carry a handful of attributes, a
// sorted slice is cheaper to build (one allocation), cheaper to scan, already
// in canonical wire order, and — unlike a map — decodable with exactly one
// allocation per event, which is what keeps the batched wire path inside its
// allocation budget.
type attr struct {
	name string
	val  Value
}

// Event is an immutable set of named, typed attributes with an identifier.
// Construct events with NewBuilder/Builder or New; the zero Event carries the
// zero ID and no attributes.
//
// An Event is one pointer word. Every gossip buffer entry, round pick, publish
// request and delivery slot holds one, so the identifier, the attributes and
// the event's wire size live once, behind the pointer, and copying an event
// copies a word. The leading zero-size func field keeps the type
// non-comparable, as for addr.Address: == would compare identity, not content.
type Event struct {
	_ [0]func()
	r *rep // nil for the zero event
}

// rep is an event's shared, immutable representation.
type rep struct {
	id ID
	// size is WireSize's answer, computed once at construction: the encoders
	// size every event they frame, once per send, and walking its 64-byte
	// attributes each time was a measurable share of a live node's CPU.
	size  int
	attrs []attr // sorted by name, unique names
}

// newRep allocates a representation for n attributes. Up to 16 attributes
// share the rep's object, so building or decoding an event costs one
// allocation; the classes are spaced so an event wastes at most one attribute
// slot below 12.
func newRep(n int) *rep {
	switch {
	case n == 0:
		return new(rep)
	case n <= 2:
		return inlineRep(n, func(a *[2]attr) []attr { return a[:] })
	case n <= 4:
		return inlineRep(n, func(a *[4]attr) []attr { return a[:] })
	case n <= 6:
		return inlineRep(n, func(a *[6]attr) []attr { return a[:] })
	case n <= 8:
		return inlineRep(n, func(a *[8]attr) []attr { return a[:] })
	case n <= 10:
		return inlineRep(n, func(a *[10]attr) []attr { return a[:] })
	case n <= 12:
		return inlineRep(n, func(a *[12]attr) []attr { return a[:] })
	case n <= 16:
		return inlineRep(n, func(a *[16]attr) []attr { return a[:] })
	}
	return &rep{attrs: make([]attr, n)}
}

// inlineRep allocates a rep and an attribute array A in one object; the rep's
// attrs are the array's first n slots.
func inlineRep[A any](n int, slots func(*A) []attr) *rep {
	x := new(struct {
		rep
		inline A
	})
	x.attrs = slots(&x.inline)[:n:n]
	return &x.rep
}

// seal memoises r's wire size once its ID and attributes are final.
func (r *rep) seal() Event {
	r.size = IDWireSize(r.id) + binenc.UvarintLen(uint64(len(r.attrs)))
	for _, a := range r.attrs {
		r.size += binenc.StringLen(a.name) + valueWireSize(a.val)
	}
	return Event{r: r}
}

// New builds an event from an attribute map. The map is copied.
func New(id ID, attrs map[string]Value) Event {
	r := newRep(len(attrs))
	as := r.attrs[:0]
	for k, v := range attrs {
		as = append(as, attr{name: k, val: v})
	}
	slices.SortFunc(as, func(a, b attr) int { return strings.Compare(a.name, b.name) })
	r.id = id
	return r.seal()
}

// attrs returns the event's sorted attributes; none for the zero event.
func (e Event) attrs() []attr {
	if e.r == nil {
		return nil
	}
	return e.r.attrs
}

// find returns the index of name in the sorted attribute slice, or -1.
func (e Event) find(name string) int {
	as := e.attrs()
	i := sort.Search(len(as), func(i int) bool { return as[i].name >= name })
	if i < len(as) && as[i].name == name {
		return i
	}
	return -1
}

// ID returns the event identifier.
func (e Event) ID() ID {
	if e.r == nil {
		return ID{}
	}
	return e.r.id
}

// WithID returns a copy of the event carrying the given identifier. The copy
// shares the attributes, so it costs one allocation whatever their number.
func (e Event) WithID(id ID) Event {
	return (&rep{id: id, attrs: e.attrs()}).seal()
}

// Attr returns the named attribute value; the zero Value if absent.
func (e Event) Attr(name string) Value {
	if i := e.find(name); i >= 0 {
		return e.r.attrs[i].val
	}
	return Value{}
}

// Lookup returns the named attribute and whether it exists.
func (e Event) Lookup(name string) (Value, bool) {
	if i := e.find(name); i >= 0 {
		return e.r.attrs[i].val, true
	}
	return Value{}, false
}

// AttrAt returns the i-th attribute (name and value) in sorted-name order,
// 0 ≤ i < Len(). Index access lets matchers merge-walk an event against a
// sorted criteria list instead of binary-searching per attribute.
func (e Event) AttrAt(i int) (string, Value) {
	a := &e.r.attrs[i]
	return a.name, a.val
}

// Names returns the attribute names in sorted order.
func (e Event) Names() []string {
	as := e.attrs()
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.name
	}
	return names
}

// Len returns the number of attributes.
func (e Event) Len() int { return len(e.attrs()) }

// String renders the event as "{id a=1 b=2.5}".
func (e Event) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	if id := e.ID(); !id.IsZero() {
		sb.WriteString(id.String())
	}
	for _, a := range e.attrs() {
		if sb.Len() > 1 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%s", a.name, a.val)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Builder accumulates attributes for an event. The zero Builder is ready to
// use.
type Builder struct {
	attrs map[string]Value
}

// NewBuilder returns an empty event builder.
func NewBuilder() *Builder { return &Builder{attrs: make(map[string]Value)} }

func (b *Builder) init() {
	if b.attrs == nil {
		b.attrs = make(map[string]Value)
	}
}

// Int sets an integer attribute and returns the builder.
func (b *Builder) Int(name string, v int64) *Builder {
	b.init()
	b.attrs[name] = Int(v)
	return b
}

// Float sets a float attribute and returns the builder.
func (b *Builder) Float(name string, v float64) *Builder {
	b.init()
	b.attrs[name] = Float(v)
	return b
}

// Str sets a string attribute and returns the builder.
func (b *Builder) Str(name string, v string) *Builder {
	b.init()
	b.attrs[name] = Str(v)
	return b
}

// Bool sets a boolean attribute and returns the builder.
func (b *Builder) Bool(name string, v bool) *Builder {
	b.init()
	b.attrs[name] = Bool(v)
	return b
}

// Set stores an arbitrary value and returns the builder.
func (b *Builder) Set(name string, v Value) *Builder {
	b.init()
	b.attrs[name] = v
	return b
}

// Build assembles the event with the given identifier. The builder can be
// reused; the event snapshots the attributes.
func (b *Builder) Build(id ID) Event {
	return New(id, b.attrs)
}
