package binenc

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrips(t *testing.T) {
	f := func(u uint64, i int64, fl float64, s string, b bool) bool {
		if math.IsNaN(fl) {
			fl = 0 // NaN != NaN; use a sentinel
		}
		var buf []byte
		buf = AppendUvarint(buf, u)
		buf = AppendVarint(buf, i)
		buf = AppendFloat(buf, fl)
		buf = AppendString(buf, s)
		buf = AppendBool(buf, b)
		buf = AppendString(buf, s)

		r := NewReader(buf)
		if got := r.Uvarint(); got != u {
			return false
		}
		if got := r.Varint(); got != i {
			return false
		}
		if got := r.Float(); got != fl {
			return false
		}
		if got := r.String(); got != s {
			return false
		}
		if got := r.Bool(); got != b {
			return false
		}
		if got := r.StringBytes(); string(got) != s {
			return false
		}
		return r.Err() == nil && r.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestByte(t *testing.T) {
	r := NewReader([]byte{0xAB})
	if got := r.Byte(); got != 0xAB {
		t.Errorf("byte = %x", got)
	}
	if r.Byte() != 0 || r.Err() == nil {
		t.Error("reading past the end must fail")
	}
}

func TestShortBufferErrors(t *testing.T) {
	tests := []struct {
		name string
		read func(*Reader)
	}{
		{"uvarint", func(r *Reader) { r.Uvarint() }},
		{"varint", func(r *Reader) { r.Varint() }},
		{"float", func(r *Reader) { r.Float() }},
		{"bool", func(r *Reader) { r.Bool() }},
		{"string", func(r *Reader) { _ = r.String() }},
		{"string bytes", func(r *Reader) { r.StringBytes() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := NewReader(nil)
			tt.read(r)
			if r.Err() == nil {
				t.Error("no error on empty buffer")
			}
		})
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader([]byte{0x01})
	r.Float() // fails: needs 8 bytes
	first := r.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	// Subsequent reads keep the first error and return zeros.
	if r.Uvarint() != 0 || r.Byte() != 0 {
		t.Error("reads after error returned values")
	}
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Errorf("err = %v", r.Err())
	}
}

func TestLengthPrefixValidation(t *testing.T) {
	// A huge declared length with a tiny buffer must fail, not allocate.
	var buf []byte
	buf = AppendUvarint(buf, 1<<40)
	r := NewReader(buf)
	if got := r.String(); got != "" || r.Err() == nil {
		t.Error("oversized string length accepted")
	}
	if got := NewReader(buf).StringBytes(); got != nil {
		t.Error("oversized string length read as bytes")
	}
	r2 := NewReader(buf)
	if n := r2.Count(8); n != 0 || r2.Err() == nil {
		t.Error("oversized count accepted")
	}
}

func TestCountAcceptsTightFits(t *testing.T) {
	var buf []byte
	buf = AppendUvarint(buf, 3)
	buf = append(buf, 1, 2, 3)
	r := NewReader(buf)
	if n := r.Count(1); n != 3 || r.Err() != nil {
		t.Errorf("count = %d, err = %v", n, r.Err())
	}
}

func TestVarintOverflow(t *testing.T) {
	// 11 bytes of continuation bits overflow a uvarint.
	buf := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}
	r := NewReader(buf)
	r.Uvarint()
	if !errors.Is(r.Err(), ErrOverflow) {
		t.Errorf("err = %v", r.Err())
	}
}
