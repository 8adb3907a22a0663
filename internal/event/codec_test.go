package event

import (
	"fmt"
	"testing"
	"testing/quick"

	"pmcast/internal/binenc"
)

func TestValueCodecRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		if fl != fl { // NaN
			fl = 0
		}
		for _, v := range []Value{Int(i), Float(fl), Str(s), Bool(b)} {
			buf := AppendValue(nil, v)
			r := binenc.NewReader(buf)
			got := ReadValue(r)
			if r.Err() != nil || !got.Equal(v) || got.Kind() != v.Kind() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroValueCodec(t *testing.T) {
	buf := AppendValue(nil, Value{})
	r := binenc.NewReader(buf)
	got := ReadValue(r)
	if !got.IsZero() || r.Err() != nil {
		t.Errorf("zero value round trip: %v, %v", got, r.Err())
	}
}

// TestUnknownValueKindPoisonsReader: a value of unknown kind has no payload
// length to skip, so it must fail the read whatever bytes follow the kind —
// alone and inside an event. A following 0x00, or a byte that reads as a
// length the input can satisfy, once decoded to {o#1 x=<invalid>} with no
// error.
func TestUnknownValueKindPoisonsReader(t *testing.T) {
	for name, in := range map[string][]byte{
		"bogus length":      {0x7F, 0x01},
		"zero byte":         {5, 0x00},
		"a readable length": {5, 3, 'a', 'b', 'c'},
	} {
		t.Run(name, func(t *testing.T) {
			r := binenc.NewReader(in)
			if got := ReadValue(r); !got.IsZero() || r.Err() == nil {
				t.Errorf("ReadValue = %v, error %v", got, r.Err())
			}
			data := AppendID(nil, ID{Origin: "o", Seq: 1})
			data = binenc.AppendUvarint(data, 1)
			data = binenc.AppendString(data, "x")
			var e Event
			if err := e.UnmarshalBinary(append(data, in...)); err == nil {
				t.Errorf("decoded %v with no error", e)
			}
			r = binenc.NewReader(append(data, in...))
			if origin, _ := ScanEvent(r); origin != nil || r.Err() == nil {
				t.Error("ScanEvent accepted what ReadEvent refuses")
			}
		})
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	in := NewBuilder().
		Int("b", -5).
		Float("c", 3.25).
		Str("e", "Bob ∨ Tom").
		Bool("x", true).
		Build(ID{Origin: "128.178.73.3", Seq: 42})
	data, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out Event
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if out.ID() != in.ID() || out.Len() != in.Len() {
		t.Fatalf("round trip: %v", out)
	}
	for _, name := range in.Names() {
		if !out.Attr(name).Equal(in.Attr(name)) {
			t.Errorf("attr %s mismatch", name)
		}
	}
}

func TestEventCodecDeterministic(t *testing.T) {
	// Attribute order must not depend on map iteration: equal events encode
	// identically.
	mk := func() Event {
		return NewBuilder().Int("z", 1).Int("a", 2).Int("m", 3).Build(ID{Origin: "o", Seq: 1})
	}
	a := AppendEvent(nil, mk())
	for i := 0; i < 20; i++ {
		b := AppendEvent(nil, mk())
		if string(a) != string(b) {
			t.Fatal("non-deterministic encoding")
		}
	}
}

func TestEventUnmarshalRejectsCorrupt(t *testing.T) {
	valid := AppendEvent(nil, NewBuilder().Int("b", 1).Build(ID{Origin: "o", Seq: 1}))
	for name, in := range map[string][]byte{
		"truncated":      {0xFF, 0xFF},
		"trailing bytes": append(valid, 0, 0),
	} {
		var e Event
		if err := e.UnmarshalBinary(in); err == nil {
			t.Errorf("%s: decoded %v with no error", name, e)
		}
	}
}

// TestWireSizeIsMemoised: the size an event carries from construction is the
// size AppendEvent emits — built, re-identified, and decoded, including a
// decode that restores canonical order and drops a duplicate name.
func TestWireSizeIsMemoised(t *testing.T) {
	built := NewBuilder().Int("z", -300).Float("c", 2.5).Str("e", "Bob").Bool("b", true).Build(ID{Origin: "1.2", Seq: 7})
	// A foreign encoder's frame: names out of order, "e" twice.
	foreign := AppendID(nil, ID{Origin: "o", Seq: 1 << 40})
	foreign = binenc.AppendUvarint(foreign, 3)
	for _, kv := range []struct {
		name string
		v    Value
	}{{"e", Str("long value")}, {"a", Int(1)}, {"e", Str("x")}} {
		foreign = binenc.AppendString(foreign, kv.name)
		foreign = AppendValue(foreign, kv.v)
	}
	var decoded Event
	if err := decoded.UnmarshalBinary(foreign); err != nil {
		t.Fatal(err)
	}
	if decoded.Len() != 2 || !decoded.Attr("e").Equal(Str("x")) {
		t.Fatalf("foreign frame decoded to %v", decoded)
	}
	for name, e := range map[string]Event{
		"zero":          {},
		"built":         built,
		"empty":         New(ID{Origin: "p", Seq: 3}, nil),
		"re-identified": built.WithID(ID{Origin: "a much longer origin", Seq: 1 << 50}),
		"zero with id":  Event{}.WithID(ID{Origin: "q", Seq: 9}),
		"decoded":       decoded,
		"many attrs":    manyAttrs(40),
	} {
		if got, want := WireSize(e), len(AppendEvent(nil, e)); got != want {
			t.Errorf("%s: WireSize = %d, AppendEvent emits %d", name, got, want)
		}
	}
}

// sink keeps a measured result on the heap, where a caller would hold it.
var sink Event

// manyAttrs builds an event with n integer attributes, past every inline
// size class.
func manyAttrs(n int) Event {
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.Int(fmt.Sprintf("a%02d", i), int64(i))
	}
	return b.Build(ID{Origin: "m", Seq: uint64(n)})
}

// TestEventAllocations: decoding an event through an interning reader costs
// one allocation — the representation, its attributes inline — at every
// inline size class; so does re-identifying one, whatever its size. Scanning
// one costs none, interned or not, and reads the same ID.
func TestEventAllocations(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 40} {
		data := AppendEvent(nil, manyAttrs(n))
		r := binenc.NewReader(data)
		r.SetIntern(binenc.NewInterner())
		ReadEvent(r) // fills the intern table
		if allocs := testing.AllocsPerRun(100, func() {
			r.Reset(data)
			if ev := ReadEvent(r); r.Err() != nil || ev.Len() != n {
				t.Fatalf("decode of %d attributes: %v, %v", n, ev, r.Err())
			}
		}); allocs != 1 && n <= 16 {
			t.Errorf("ReadEvent with %d attributes: %.1f allocations, want 1", n, allocs)
		}
		scan := binenc.NewReader(data)
		if allocs := testing.AllocsPerRun(100, func() {
			scan.Reset(data)
			origin, seq := ScanEvent(scan)
			if scan.Err() != nil || scan.Len() != 0 || string(origin) != "m" || seq != uint64(n) {
				t.Fatalf("scan of %d attributes: %q#%d, %v", n, origin, seq, scan.Err())
			}
		}); allocs != 0 {
			t.Errorf("ScanEvent with %d attributes: %.1f allocations, want 0", n, allocs)
		}
	}
	ev := manyAttrs(9)
	id := ID{Origin: "w", Seq: 2}
	if allocs := testing.AllocsPerRun(100, func() { sink = ev.WithID(id) }); allocs != 1 {
		t.Errorf("WithID: %.1f allocations, want 1", allocs)
	}
}
