// Package binenc provides the small append-based binary encoding primitives
// shared by the wire codecs (varints, length-prefixed strings, IEEE floats,
// booleans) plus a cursor-style Reader with explicit error state. The format
// is deliberately simple: unsigned varints for lengths and integers
// (zig-zag for signed), little-endian IEEE 754 for floats.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Decoding errors.
var (
	ErrShortBuffer = errors.New("binenc: short buffer")
	ErrOverflow    = errors.New("binenc: varint overflows")
	ErrTooLong     = errors.New("binenc: length prefix exceeds remaining data")
)

// AppendUvarint appends an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// UvarintLen returns the encoded size of an unsigned varint. Batch framing
// length-prefixes each section, so encoders size sections up front instead of
// encoding twice or shifting bytes.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// VarintLen returns the encoded size of a zig-zag signed varint.
func VarintLen(v int64) int {
	return UvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}

// StringLen returns the encoded size of a length-prefixed string.
func StringLen(s string) int {
	return UvarintLen(uint64(len(s))) + len(s)
}

// AppendVarint appends a zig-zag signed varint.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendFloat appends a little-endian IEEE 754 double.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendBool appends one byte (0 or 1).
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Interner deduplicates decoded strings across frames. Gossip streams repeat
// the same small vocabulary endlessly — event origins, attribute names,
// membership keys — and a decoder that allocates a fresh string for each
// occurrence dominates the decode allocation profile. An Interner returns the
// canonical copy instead; lookups by byte slice compile to zero-allocation
// map accesses, so steady-state string decoding costs nothing.
//
// An Interner is not safe for concurrent use; give each decoder its own.
type Interner struct {
	m map[string]string
}

// maxInternerEntries bounds the table so an adversarial stream of unique
// strings cannot grow it without limit; when full, the table is dropped and
// rebuilt from the traffic that follows (the steady-state vocabulary).
// maxInternedLen keeps payload-sized strings out entirely: vocabulary
// strings (addresses, attribute names, membership keys) are short, and
// interning a unique multi-kilobyte attribute value would both pin it in
// memory and evict the vocabulary the table exists for. Together the bounds
// cap a table at maxInternerEntries·maxInternedLen bytes.
const (
	maxInternerEntries = 4096
	maxInternedLen     = 64
)

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	return &Interner{m: make(map[string]string)}
}

// Intern returns the canonical string equal to b, allocating only on first
// sight of a vocabulary-sized string; longer strings are copied through
// without being retained.
func (in *Interner) Intern(b []byte) string {
	if len(b) > maxInternedLen {
		return string(b)
	}
	if s, ok := in.m[string(b)]; ok { // no-alloc lookup: string(b) is not retained
		return s
	}
	if len(in.m) >= maxInternerEntries {
		in.m = make(map[string]string)
	}
	s := string(b)
	in.m[s] = s
	return s
}

// Reader is a sticky-error cursor over an encoded buffer: after the first
// failure every further read returns zero values, and Err reports the cause.
type Reader struct {
	buf    []byte
	off    int
	err    error
	intern *Interner
}

// NewReader wraps a buffer.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// SetIntern routes every String read through the given intern table (nil
// disables interning). Reset to reuse the reader over a new buffer.
func (r *Reader) SetIntern(in *Interner) { r.intern = in }

// Reset points the reader at a new buffer, clearing offset and error but
// keeping the intern table — the decoder-scratch-reuse pattern of the wire
// hot path.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.off = 0
	r.err = nil
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Fail records a caller-detected semantic error (an unknown wire tag, an
// out-of-domain value), poisoning every further read exactly like a
// malformed buffer would. Codecs use it so "structurally readable but
// meaningless" inputs surface as decode errors instead of zero values.
func (r *Reader) Fail(err error) { r.fail(err) }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Done ends a whole-buffer decode: it returns Err, or, when the value read
// cleanly but left bytes unread, an error counting them.
func (r *Reader) Done() error {
	if r.err == nil && r.Len() != 0 {
		return fmt.Errorf("%d trailing bytes", r.Len())
	}
	return r.err
}

// fail records the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("%w at offset %d", err, r.off)
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n == 0 {
		r.fail(ErrShortBuffer)
		return 0
	}
	if n < 0 {
		r.fail(ErrOverflow)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n == 0 {
		r.fail(ErrShortBuffer)
		return 0
	}
	if n < 0 {
		r.fail(ErrOverflow)
		return 0
	}
	r.off += n
	return v
}

// Float reads an IEEE 754 double.
func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if r.Len() < 8 {
		r.fail(ErrShortBuffer)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.Len() < 1 {
		r.fail(ErrShortBuffer)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// Bool reads one byte as a boolean.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.Len() < 1 {
		r.fail(ErrShortBuffer)
		return false
	}
	v := r.buf[r.off] != 0
	r.off++
	return v
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	raw := r.StringBytes()
	if r.err != nil {
		return ""
	}
	if r.intern != nil {
		return r.intern.Intern(raw)
	}
	return string(raw)
}

// StringBytes reads a length-prefixed string as a slice aliasing the buffer:
// it fails where String fails, and neither copies nor interns. A scan that
// only validates or skips a string uses it.
func (r *Reader) StringBytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(r.Len()) < n {
		r.fail(ErrTooLong)
		return nil
	}
	raw := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return raw
}

// Raw reads exactly n raw bytes with no length prefix (copied). Callers
// that already know a payload's length from surrounding framing — the
// fixed-size FEC symbols of a batch's repair section — use it to avoid
// encoding the length twice.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Len() < n {
		r.fail(ErrShortBuffer)
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+n])
	r.off += n
	return out
}

// Count reads a length prefix and validates it against a per-element
// minimum size, so corrupt inputs cannot trigger huge allocations.
func (r *Reader) Count(minElemSize int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if minElemSize < 1 {
		minElemSize = 1
	}
	if n > uint64(r.Len()/minElemSize)+1 {
		r.fail(ErrTooLong)
		return 0
	}
	return int(n)
}
