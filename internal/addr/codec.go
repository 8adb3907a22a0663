package addr

import (
	"pmcast/internal/binenc"
)

// AppendAddress appends the wire form of an address: digit count followed by
// the digits as varints.
func AppendAddress(b []byte, a Address) []byte {
	b = binenc.AppendUvarint(b, uint64(a.Depth()))
	for _, d := range a.digits() {
		b = binenc.AppendVarint(b, int64(d))
	}
	return b
}

// WireSize returns the exact number of bytes AppendAddress would emit,
// without encoding.
func WireSize(a Address) int {
	n := binenc.UvarintLen(uint64(a.Depth()))
	for _, d := range a.digits() {
		n += binenc.VarintLen(int64(d))
	}
	return n
}

// ReadAddress reads an address previously written by AppendAddress. On
// malformed input the reader's error is set and the zero Address returned.
func ReadAddress(r *binenc.Reader) Address {
	n := r.Count(1)
	if n == 0 {
		return Address{}
	}
	rp := newRep(n)
	for i := range rp.digits {
		rp.digits[i] = int(r.Varint())
	}
	if r.Err() != nil {
		return Address{}
	}
	return rp.seal()
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (a Address) MarshalBinary() ([]byte, error) {
	return AppendAddress(nil, a), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. data must hold
// exactly an address: trailing bytes are an error.
func (a *Address) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	got := ReadAddress(r)
	if err := r.Done(); err != nil {
		return err
	}
	*a = got
	return nil
}
