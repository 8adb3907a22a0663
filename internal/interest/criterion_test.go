package interest

import (
	"testing"

	"pmcast/internal/event"
)

func TestCriterionMatches(t *testing.T) {
	tests := []struct {
		name string
		c    Criterion
		v    event.Value
		want bool
	}{
		{"gt hit", Gt(3), event.Int(4), true},
		{"gt boundary", Gt(3), event.Int(3), false},
		{"ge boundary", Ge(3), event.Int(3), true},
		{"lt hit", Lt(3), event.Float(2.9), true},
		{"le boundary", Le(3), event.Int(3), true},
		{"between hit", Between(10, 220), event.Float(155.6), true},
		{"between open lo", Between(10, 220), event.Float(10), false},
		{"between open hi", Between(10, 220), event.Float(220), false},
		{"betweenincl boundary", BetweenIncl(10, 220), event.Float(220), true},
		{"eq int", EqInt(2), event.Int(2), true},
		{"eq int float event", EqInt(2), event.Float(2.0), true},
		{"eq float", EqFloat(35.997), event.Float(35.997), true},
		{"eq miss", EqInt(2), event.Int(3), false},
		{"numeric vs string value", Gt(0), event.Str("5"), false},
		{"oneof hit", OneOf("Bob", "Tom"), event.Str("Tom"), true},
		{"oneof miss", OneOf("Bob", "Tom"), event.Str("Alice"), false},
		{"oneof vs int", OneOf("Bob"), event.Int(1), false},
		{"bool hit", IsBool(true), event.Bool(true), true},
		{"bool miss", IsBool(true), event.Bool(false), false},
		{"any matches int", Any(), event.Int(0), true},
		{"any matches string", Any(), event.Str(""), true},
		{"any rejects zero value", Any(), event.Value{}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.c.Matches(tt.v); got != tt.want {
				t.Errorf("Matches(%v) = %v, want %v", tt.v, got, tt.want)
			}
		})
	}
}

func TestCriterionSubsumes(t *testing.T) {
	tests := []struct {
		name string
		a, b Criterion
		want bool
	}{
		{"wider gt", Gt(0), Gt(3), true},
		{"narrower gt", Gt(3), Gt(0), false},
		{"ge subsumes gt same bound", Ge(3), Gt(3), true},
		{"gt not subsumes ge same bound", Gt(3), Ge(3), false},
		{"range in range", Between(0, 100), Between(10, 20), true},
		{"point in range", Between(0, 100), EqInt(50), true},
		{"superset strings", OneOf("Bob", "Tom", "Ann"), OneOf("Bob", "Tom"), true},
		{"subset strings", OneOf("Bob"), OneOf("Bob", "Tom"), false},
		{"larger set holding all of c", OneOf("Bob", "Tom"), OneOf("Ann", "Bob", "Tom"), false},
		{"larger disjoint set", OneOf("Bob", "Tom"), OneOf("Ann", "Eve", "Max"), false},
		{"equal string sets", OneOf("Bob", "Tom"), OneOf("Tom", "Bob"), true},
		{"empty set under empty set", OneOf(), OneOf(), true},
		{"empty set over one string", OneOf(), OneOf("Bob"), false},
		{"same bool", IsBool(true), IsBool(true), true},
		{"diff bool", IsBool(true), IsBool(false), false},
		{"any subsumes numeric", Any(), Gt(0), true},
		{"numeric not subsumes any", Gt(0), Any(), false},
		{"cross domain", Gt(0), OneOf("x"), false},
		{"cross domain empty rhs", Gt(0), OneOf(), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Subsumes(tt.b); got != tt.want {
				t.Errorf("Subsumes = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCriterionUnion(t *testing.T) {
	t.Run("numeric union keeps both", func(t *testing.T) {
		u := Between(1, 2).Union(Between(5, 6))
		if !u.Matches(event.Float(1.5)) || !u.Matches(event.Float(5.5)) {
			t.Error("union lost a disjunct")
		}
		if u.Matches(event.Float(3)) {
			t.Error("union matched gap value")
		}
		if u.Size() != 2 {
			t.Errorf("size = %d, want 2", u.Size())
		}
	})
	t.Run("string union", func(t *testing.T) {
		u := OneOf("Bob").Union(OneOf("Tom", "Bob"))
		if u.Size() != 2 {
			t.Errorf("size = %d, want 2", u.Size())
		}
		if !u.Matches(event.Str("Tom")) || !u.Matches(event.Str("Bob")) {
			t.Error("string union lost values")
		}
	})
	t.Run("cross domain widens to any", func(t *testing.T) {
		u := Gt(1).Union(OneOf("x"))
		if !u.IsAny() {
			t.Errorf("cross-domain union = %v, want wildcard", u)
		}
	})
	t.Run("bool unions", func(t *testing.T) {
		if u := IsBool(true).Union(IsBool(true)); u.IsAny() {
			t.Error("same-bool union widened")
		}
		if u := IsBool(true).Union(IsBool(false)); !u.IsAny() {
			t.Error("both-bool union should widen")
		}
	})
	t.Run("union with empty is identity", func(t *testing.T) {
		if u := Gt(1).Union(OneOf()); !u.Equal(Gt(1)) {
			t.Errorf("union with empty = %v", u)
		}
	})
	t.Run("union subsumes operands", func(t *testing.T) {
		pairs := [][2]Criterion{
			{Gt(3), Lt(-2)},
			{EqInt(1), EqInt(9)},
			{OneOf("a", "b"), OneOf("c")},
			{Between(0, 1), Ge(10)},
		}
		for _, p := range pairs {
			u := p[0].Union(p[1])
			if !u.Subsumes(p[0]) || !u.Subsumes(p[1]) {
				t.Errorf("union %v does not subsume operands %v, %v", u, p[0], p[1])
			}
		}
	})
}

func TestCriterionRender(t *testing.T) {
	tests := []struct {
		c    Criterion
		attr string
		want string
	}{
		{Gt(3), "b", "b > 3"},
		{Between(10, 220), "c", "10 < c < 220"},
		{EqInt(42000), "z", "z = 42000"},
		{OneOf("Bob", "Tom"), "e", `e = "Bob" ∨ "Tom"`},
		{Any(), "b", "b = *"},
		{IsBool(true), "u", "u = true"},
		{OneOf(), "e", "e ∈ ∅"},
	}
	for _, tt := range tests {
		if got := tt.c.Render(tt.attr); got != tt.want {
			t.Errorf("Render = %q, want %q", got, tt.want)
		}
	}
}

func TestCriterionEqual(t *testing.T) {
	if !Gt(3).Equal(Gt(3)) {
		t.Error("identical criteria unequal")
	}
	if Gt(3).Equal(Ge(3)) {
		t.Error("distinct criteria equal")
	}
	if !OneOf("a", "b").Equal(OneOf("b", "a", "a")) {
		t.Error("order/duplicates should not matter")
	}
}

func TestEqOnInvalidValue(t *testing.T) {
	c := Eq(event.Value{})
	if !c.IsEmpty() {
		t.Error("Eq(zero value) should admit nothing")
	}
	if c.Matches(event.Int(0)) {
		t.Error("empty criterion matched")
	}
}
