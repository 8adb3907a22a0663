package event

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueKinds(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		kind Kind
		str  string
	}{
		{name: "int", v: Int(42), kind: KindInt, str: "42"},
		{name: "negative int", v: Int(-7), kind: KindInt, str: "-7"},
		{name: "float", v: Float(35.997), kind: KindFloat, str: "35.997"},
		{name: "string", v: Str("Bob"), kind: KindString, str: `"Bob"`},
		{name: "bool", v: Bool(true), kind: KindBool, str: "true"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.v.Kind() != tt.kind {
				t.Errorf("kind = %v, want %v", tt.v.Kind(), tt.kind)
			}
			if tt.v.String() != tt.str {
				t.Errorf("string = %q, want %q", tt.v.String(), tt.str)
			}
			if tt.v.IsZero() {
				t.Error("IsZero on live value")
			}
		})
	}
	var zero Value
	if !zero.IsZero() {
		t.Error("zero value not IsZero")
	}
	if zero.String() != "<invalid>" {
		t.Errorf("zero string = %q", zero.String())
	}
}

func TestValueAccessors(t *testing.T) {
	if v, ok := Int(5).AsInt(); !ok || v != 5 {
		t.Errorf("AsInt = %d,%v", v, ok)
	}
	if _, ok := Int(5).AsFloat(); ok {
		t.Error("AsFloat on int should fail")
	}
	if v, ok := Float(2.5).AsFloat(); !ok || v != 2.5 {
		t.Errorf("AsFloat = %g,%v", v, ok)
	}
	if v, ok := Str("x").AsString(); !ok || v != "x" {
		t.Errorf("AsString = %q,%v", v, ok)
	}
	if v, ok := Bool(true).AsBool(); !ok || !v {
		t.Errorf("AsBool = %v,%v", v, ok)
	}
}

func TestNumericView(t *testing.T) {
	if n, ok := Int(3).Numeric(); !ok || n != 3.0 {
		t.Errorf("Numeric(int) = %g,%v", n, ok)
	}
	if n, ok := Float(3.5).Numeric(); !ok || n != 3.5 {
		t.Errorf("Numeric(float) = %g,%v", n, ok)
	}
	if _, ok := Str("3").Numeric(); ok {
		t.Error("Numeric(string) should fail")
	}
	if _, ok := Bool(true).Numeric(); ok {
		t.Error("Numeric(bool) should fail")
	}
}

func TestValueEqual(t *testing.T) {
	tests := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(2), Float(2.0), true}, // cross-kind numeric equality
		{Float(2.5), Float(2.5), true},
		{Str("a"), Str("a"), true},
		{Str("a"), Str("b"), false},
		{Str("1"), Int(1), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Value{}, Value{}, true},
		{Value{}, Int(0), false},
	}
	for _, tt := range tests {
		if got := tt.a.Equal(tt.b); got != tt.want {
			t.Errorf("Equal(%s,%s) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
		if got := tt.b.Equal(tt.a); got != tt.want {
			t.Errorf("Equal(%s,%s) = %v, want %v (symmetry)", tt.b, tt.a, got, tt.want)
		}
	}
}

func TestValueEqualReflexiveProperty(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		vs := []Value{Int(i), Float(fl), Str(s), Bool(b)}
		for _, v := range vs {
			if !v.Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEventBuilder(t *testing.T) {
	id := ID{Origin: "128.178.73.3", Seq: 9}
	ev := NewBuilder().
		Int("b", 2).
		Float("c", 41.5).
		Str("e", "Bob").
		Bool("urgent", false).
		Build(id)

	if ev.ID() != id {
		t.Errorf("id = %v", ev.ID())
	}
	if ev.Len() != 4 {
		t.Errorf("len = %d", ev.Len())
	}
	if v, ok := ev.Lookup("b"); !ok || !v.Equal(Int(2)) {
		t.Errorf("b = %v,%v", v, ok)
	}
	if _, ok := ev.Lookup("missing"); ok {
		t.Error("missing attribute found")
	}
	if !ev.Attr("missing").IsZero() {
		t.Error("Attr(missing) not zero")
	}
	names := ev.Names()
	want := []string{"b", "c", "e", "urgent"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestZeroBuilderUsable(t *testing.T) {
	var b Builder
	ev := b.Int("x", 1).Build(ID{})
	if v, ok := ev.Lookup("x"); !ok || !v.Equal(Int(1)) {
		t.Fatalf("zero builder broken: %v %v", v, ok)
	}
}

func TestEventImmutability(t *testing.T) {
	attrs := map[string]Value{"a": Int(1)}
	ev := New(ID{}, attrs)
	attrs["a"] = Int(99)
	attrs["b"] = Int(2)
	if !ev.Attr("a").Equal(Int(1)) {
		t.Error("event shares caller's map")
	}
	if ev.Len() != 1 {
		t.Error("event grew after construction")
	}
}

func TestBuilderReuseSnapshots(t *testing.T) {
	b := NewBuilder().Int("a", 1)
	e1 := b.Build(ID{Seq: 1})
	b.Int("a", 2)
	e2 := b.Build(ID{Seq: 2})
	if !e1.Attr("a").Equal(Int(1)) {
		t.Error("first build mutated by later builder writes")
	}
	if !e2.Attr("a").Equal(Int(2)) {
		t.Error("second build missing update")
	}
}

func TestIDString(t *testing.T) {
	id := ID{Origin: "1.2.3", Seq: 42}
	if id.String() != "1.2.3#42" {
		t.Errorf("String = %q", id.String())
	}
	if id.IsZero() {
		t.Error("live ID IsZero")
	}
	if !(ID{}).IsZero() {
		t.Error("zero ID not IsZero")
	}
}

func TestEventString(t *testing.T) {
	ev := NewBuilder().Int("b", 3).Build(ID{Origin: "1.1", Seq: 1})
	if got := ev.String(); got != "{1.1#1 b=3}" {
		t.Errorf("String = %q", got)
	}
	if got := (Event{}).String(); got != "{}" {
		t.Errorf("zero event String = %q", got)
	}
}

func TestWithID(t *testing.T) {
	ev := NewBuilder().Int("a", 1).Build(ID{})
	ev2 := ev.WithID(ID{Origin: "x", Seq: 1})
	if ev2.ID().Origin != "x" {
		t.Error("WithID did not set id")
	}
	if !ev2.Attr("a").Equal(Int(1)) {
		t.Error("WithID lost attributes")
	}
	if !ev.ID().IsZero() {
		t.Error("WithID mutated original")
	}
}

func TestEventIsOneWord(t *testing.T) {
	if got, want := unsafe.Sizeof(Event{}), unsafe.Sizeof(uintptr(0)); got != want {
		t.Errorf("sizeof(Event) = %d, want one pointer (%d)", got, want)
	}
}

// TestZeroEvent: the zero Event answers as an event with the zero ID and no
// attributes.
func TestZeroEvent(t *testing.T) {
	var e Event
	if !e.ID().IsZero() || e.Len() != 0 || len(e.Names()) != 0 {
		t.Errorf("zero event: id %v, len %d, names %v", e.ID(), e.Len(), e.Names())
	}
	if _, ok := e.Lookup("x"); ok || !e.Attr("x").IsZero() {
		t.Error("zero event has an attribute")
	}
	if got := WireSize(e); got != 3 {
		t.Errorf("WireSize = %d, want 3", got)
	}
	if got := e.String(); got != "{}" {
		t.Errorf("String = %q", got)
	}
}
