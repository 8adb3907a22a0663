package event

import (
	"fmt"

	"pmcast/internal/binenc"
)

// AppendValue appends the wire form of a value: a kind byte followed by the
// kind-specific payload.
func AppendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindInt:
		b = binenc.AppendVarint(b, v.i)
	case KindFloat:
		b = binenc.AppendFloat(b, v.f)
	case KindString:
		b = binenc.AppendString(b, v.s)
	case KindBool:
		b = binenc.AppendBool(b, v.b)
	}
	return b
}

// ReadValue reads a value written by AppendValue.
func ReadValue(r *binenc.Reader) Value {
	kind := Kind(r.Byte())
	switch kind {
	case KindInt:
		return Value{kind: kind, i: r.Varint()}
	case KindFloat:
		return Value{kind: kind, f: r.Float()}
	case KindString:
		return Value{kind: kind, s: r.String()}
	case KindBool:
		return Value{kind: kind, b: r.Bool()}
	case 0:
		return Value{}
	default:
		failKind(r, kind)
		return Value{}
	}
}

// skipValue consumes a value as ReadValue reads it, failing where ReadValue
// fails, without building it.
func skipValue(r *binenc.Reader) {
	switch kind := Kind(r.Byte()); kind {
	case KindInt:
		r.Varint()
	case KindFloat:
		r.Float()
	case KindString:
		r.StringBytes()
	case KindBool:
		r.Bool()
	case 0:
	default:
		failKind(r, kind)
	}
}

// failKind poisons r on a value kind it does not know: an unknown kind has no
// payload length a decoder could skip, so the rest of the input is
// unreadable.
func failKind(r *binenc.Reader, kind Kind) {
	r.Fail(fmt.Errorf("event: unknown value kind %d", kind))
}

// AppendID appends an event identifier.
func AppendID(b []byte, id ID) []byte {
	b = binenc.AppendString(b, id.Origin)
	return binenc.AppendUvarint(b, id.Seq)
}

// ReadID reads an event identifier.
func ReadID(r *binenc.Reader) ID {
	return ID{Origin: r.String(), Seq: r.Uvarint()}
}

// IDWireSize returns the encoded size of an event identifier, computed
// without encoding — the size-walk counterpart of AppendID.
func IDWireSize(id ID) int {
	return binenc.StringLen(id.Origin) + binenc.UvarintLen(id.Seq)
}

// AppendEvent appends an event: its ID, then sorted (name, value) pairs.
// Attributes are stored sorted, so encoding is a straight walk — no scratch
// allocations on the batched wire hot path.
func AppendEvent(b []byte, e Event) []byte {
	as := e.attrs()
	b = AppendID(b, e.ID())
	b = binenc.AppendUvarint(b, uint64(len(as)))
	for _, a := range as {
		b = binenc.AppendString(b, a.name)
		b = AppendValue(b, a.val)
	}
	return b
}

// valueWireSize returns the encoded size of a value.
func valueWireSize(v Value) int {
	switch v.kind {
	case KindInt:
		return 1 + binenc.VarintLen(v.i)
	case KindFloat:
		return 1 + 8
	case KindString:
		return 1 + binenc.StringLen(v.s)
	case KindBool:
		return 1 + 1
	default:
		return 1
	}
}

// zeroWireSize is the encoded size of the zero event: an empty origin, a zero
// sequence number and no attributes, one byte each.
const zeroWireSize = 3

// WireSize returns the exact number of bytes AppendEvent would emit, without
// encoding. Batch framing length-prefixes each event section, so encoders
// need sizes before bodies; the size is computed once, when the event is
// built or decoded, and read here.
func WireSize(e Event) int {
	if e.r == nil {
		return zeroWireSize
	}
	return e.r.size
}

// ReadEvent reads an event written by AppendEvent. Through an interning
// reader it costs one allocation, the representation with up to 16
// attributes inline. Attributes arrive sorted from our own
// encoder, which the fast path exploits; unsorted or duplicated names
// (foreign encoders, corrupted frames) are insertion-sorted with last-wins
// semantics so the canonical form is restored.
func ReadEvent(r *binenc.Reader) Event {
	id := ReadID(r)
	n := r.Count(2)
	if r.Err() != nil {
		return Event{}
	}
	rp := newRep(n)
	attrs := rp.attrs[:0]
	for i := 0; i < n; i++ {
		name := r.String()
		v := ReadValue(r)
		if r.Err() != nil {
			return Event{}
		}
		if k := len(attrs); k == 0 || attrs[k-1].name < name {
			attrs = append(attrs, attr{name: name, val: v}) // already in order
			continue
		}
		// Out-of-order or duplicate name: insert at its sorted position.
		at := 0
		for at < len(attrs) && attrs[at].name < name {
			at++
		}
		if at < len(attrs) && attrs[at].name == name {
			attrs[at].val = v // duplicate: last wins, as a map decode would
			continue
		}
		attrs = append(attrs, attr{})
		copy(attrs[at+1:], attrs[at:])
		attrs[at] = attr{name: name, val: v}
	}
	rp.id, rp.attrs = id, attrs
	return rp.seal()
}

// ScanEvent validates an event written by AppendEvent without building it:
// it fails on exactly the inputs ReadEvent fails on, consumes the same bytes,
// and returns the event's origin, aliasing r's buffer, and its sequence
// number. It neither allocates nor interns, so a receiver can ask its
// seen-set about an event before paying to build it.
func ScanEvent(r *binenc.Reader) (origin []byte, seq uint64) {
	origin = r.StringBytes()
	seq = r.Uvarint()
	n := r.Count(2)
	for i := 0; i < n && r.Err() == nil; i++ {
		r.StringBytes()
		skipValue(r)
	}
	if r.Err() != nil {
		return nil, 0
	}
	return origin, seq
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (e Event) MarshalBinary() ([]byte, error) {
	return AppendEvent(nil, e), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. data must hold
// exactly an event: trailing bytes are an error.
func (e *Event) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	got := ReadEvent(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("event: decoding: %w", err)
	}
	*e = got
	return nil
}
