package addr

import (
	"testing"
	"testing/quick"

	"pmcast/internal/binenc"
)

func TestAddressCodecRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		digits := make([]int, len(raw))
		for i, v := range raw {
			digits[i] = int(v)
		}
		in := New(digits...)
		data, err := in.MarshalBinary()
		if err != nil || WireSize(in) != len(data) {
			return false
		}
		var out Address
		if err := out.UnmarshalBinary(data); err != nil {
			return false
		}
		return out.Equal(in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddressCodecComposes(t *testing.T) {
	var buf []byte
	buf = AppendAddress(buf, New(1, 2, 3))
	buf = AppendAddress(buf, New(9))
	r := binenc.NewReader(buf)
	if got := ReadAddress(r); !got.Equal(New(1, 2, 3)) {
		t.Errorf("first = %v", got)
	}
	if got := ReadAddress(r); !got.Equal(New(9)) {
		t.Errorf("second = %v", got)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Errorf("reader state: %v, %d left", r.Err(), r.Len())
	}
}

func TestAddressCodecRejectsCorrupt(t *testing.T) {
	for name, in := range map[string][]byte{
		"truncated":      {0x05, 0x01},
		"trailing bytes": append(AppendAddress(nil, New(1, 2)), 0),
	} {
		var a Address
		if err := a.UnmarshalBinary(in); err == nil {
			t.Errorf("%s: decoded %v with no error", name, a)
		}
	}
}
