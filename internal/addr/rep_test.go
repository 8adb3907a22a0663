package addr

import (
	"encoding/binary"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"pmcast/internal/binenc"
)

// TestAddressIsOneWord pins the layout every envelope, record and tree line
// pays for: an address is a single pointer.
func TestAddressIsOneWord(t *testing.T) {
	if got, want := unsafe.Sizeof(Address{}), unsafe.Sizeof(uintptr(0)); got != want {
		t.Fatalf("unsafe.Sizeof(Address{}) = %d, want %d (one word)", got, want)
	}
}

// TestConstructionAllocations holds every way of building an address to two
// allocations — the representation and its key — at the depths this
// repository runs.
func TestConstructionAllocations(t *testing.T) {
	space := MustRegular(4, 8)
	wire := AppendAddress(nil, New(3, 1, 0, 2, 3, 1, 0, 2))
	p := NewPrefix(1, 2, 3)
	var sink Address
	cases := map[string]func(){
		"New/2":            func() { sink = New(1, 2) },
		"New/8":            func() { sink = New(1, 2, 3, 4, 5, 6, 7, 8) },
		"Parse/4":          func() { sink, _ = Parse("128.178.73.3") },
		"ReadAddress/8":    func() { sink = ReadAddress(binenc.NewReader(wire)) },
		"AddressAt/8":      func() { sink = space.AddressAt(12345) },
		"Prefix.Address/5": func() { sink = p.Address(4, 5) },
	}
	for name, build := range cases {
		if got := testing.AllocsPerRun(100, build); got > 2 {
			t.Errorf("%s: %.1f allocations per address, want ≤ 2", name, got)
		}
	}
	_ = sink
}

// fuzzDigits reads a digit list from b: a length byte (mod 13, so the
// out-of-line representation past depth 8 is reached), then two bytes per
// digit as a signed 16-bit value.
func fuzzDigits(b []byte) ([]int, []byte) {
	if len(b) == 0 {
		return nil, b
	}
	n := int(b[0]) % 13
	b = b[1:]
	var ds []int
	for ; n > 0 && len(b) >= 2; n-- {
		ds = append(ds, int(int16(binary.LittleEndian.Uint16(b))))
		b = b[2:]
	}
	return ds, b
}

func refKey(ds []int) string {
	parts := make([]string, len(ds))
	for i, v := range ds {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ".")
}

func refCommon(a, b []int) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// FuzzAddressAgainstDigits holds the one-word address to a plain []int
// reference: ordering, equality, prefixes and their keys, shared depth,
// distance, the key and the wire round trip.
func FuzzAddressAgainstDigits(f *testing.F) {
	f.Add([]byte{3, 1, 0, 2, 0, 3, 0, 3, 1, 0, 2, 0, 4, 0})
	f.Add([]byte{})
	f.Add([]byte{2, 0xff, 0xff, 7, 0, 2, 0xff, 0xff, 8, 0})
	f.Add([]byte{12, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 11, 1, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ad, rest := fuzzDigits(data)
		bd, _ := fuzzDigits(rest)
		a, b := New(ad...), New(bd...)

		if a.IsZero() != (len(ad) == 0) || a.Depth() != len(ad) {
			t.Fatalf("%v: IsZero %v, Depth %d", ad, a.IsZero(), a.Depth())
		}
		for i, v := range ad {
			if a.Digit(i+1) != v {
				t.Fatalf("%v: Digit(%d) = %d", ad, i+1, a.Digit(i+1))
			}
		}
		if got, want := a.Key(), refKey(ad); got != want {
			t.Fatalf("Key = %q, want %q", got, want)
		}
		if got, want := a.Compare(b), slices.Compare(ad, bd); got != want {
			t.Fatalf("Compare(%v, %v) = %d, want %d", ad, bd, got, want)
		}
		if got, want := a.Equal(b), slices.Equal(ad, bd); got != want {
			t.Fatalf("Equal(%v, %v) = %v, want %v", ad, bd, got, want)
		}
		if !a.Equal(New(ad...)) || a.Compare(a) != 0 {
			t.Fatalf("%v: not equal to itself", ad)
		}
		shared := refCommon(ad, bd)
		if got := a.CommonPrefixDepth(b); got != shared+1 {
			t.Fatalf("CommonPrefixDepth(%v, %v) = %d, want %d", ad, bd, got, shared+1)
		}
		wantDist := len(ad) - shared
		if slices.Equal(ad, bd) {
			wantDist = 0
		}
		if got := a.Distance(b); got != wantDist {
			t.Fatalf("Distance(%v, %v) = %d, want %d", ad, bd, got, wantDist)
		}
		for i := 1; i <= len(ad)+1; i++ {
			p := a.Prefix(i)
			if got, want := p.Key(), refKey(ad[:i-1]); got != want {
				t.Fatalf("%v: Prefix(%d).Key() = %q, want %q", ad, i, got, want)
			}
			if !a.HasPrefix(p) {
				t.Fatalf("%v: does not have its own Prefix(%d)", ad, i)
			}
		}
		for k := 0; k <= len(bd); k++ {
			p := NewPrefix(bd[:k]...)
			want := k <= len(ad) && slices.Equal(ad[:k], bd[:k])
			if got := a.HasPrefix(p); got != want {
				t.Fatalf("%v.HasPrefix(%v) = %v, want %v", ad, bd[:k], got, want)
			}
		}

		enc := AppendAddress(nil, a)
		if WireSize(a) != len(enc) {
			t.Fatalf("%v: WireSize %d, encoded %d bytes", ad, WireSize(a), len(enc))
		}
		r := binenc.NewReader(enc)
		got := ReadAddress(r)
		if r.Err() != nil || r.Len() != 0 || !got.Equal(a) || got.Key() != a.Key() {
			t.Fatalf("%v: wire round trip gave %v (err %v, %d left)", ad, got, r.Err(), r.Len())
		}
	})
}
