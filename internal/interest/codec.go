package interest

import (
	"fmt"

	"pmcast/internal/binenc"
)

// Interval wire flags.
const (
	flagLoOpen byte = 1 << 0
	flagHiOpen byte = 1 << 1
)

// AppendInterval appends an interval: Lo, Hi doubles plus a flags byte.
func AppendInterval(b []byte, iv Interval) []byte {
	b = binenc.AppendFloat(b, iv.Lo)
	b = binenc.AppendFloat(b, iv.Hi)
	var flags byte
	if iv.LoOpen {
		flags |= flagLoOpen
	}
	if iv.HiOpen {
		flags |= flagHiOpen
	}
	return append(b, flags)
}

// ReadInterval reads an interval written by AppendInterval.
func ReadInterval(r *binenc.Reader) Interval {
	lo := r.Float()
	hi := r.Float()
	flags := r.Byte()
	return Interval{Lo: lo, Hi: hi, LoOpen: flags&flagLoOpen != 0, HiOpen: flags&flagHiOpen != 0}
}

// AppendCriterion appends a criterion: kind byte plus payload.
func AppendCriterion(b []byte, c Criterion) []byte {
	b = append(b, byte(c.kind))
	switch c.kind {
	case kindNumeric:
		b = binenc.AppendUvarint(b, uint64(len(c.nums)))
		for _, iv := range c.nums {
			b = AppendInterval(b, iv)
		}
	case kindString:
		b = binenc.AppendUvarint(b, uint64(len(c.strs)))
		for _, s := range c.strs {
			b = binenc.AppendString(b, s)
		}
	case kindBool:
		b = binenc.AppendBool(b, c.b)
	}
	return b
}

// ReadCriterion reads a criterion written by AppendCriterion.
func ReadCriterion(r *binenc.Reader) Criterion {
	kind := criterionKind(r.Byte())
	switch kind {
	case kindAny:
		return Any()
	case kindNumeric:
		n := r.Count(17)
		ivs := make([]Interval, n)
		for i := range ivs {
			ivs[i] = ReadInterval(r)
		}
		if r.Err() != nil {
			return Criterion{}
		}
		return Criterion{kind: kindNumeric, nums: NormalizeIntervals(ivs)}
	case kindString:
		n := r.Count(1)
		ss := make([]string, n)
		for i := range ss {
			ss[i] = r.String()
		}
		if r.Err() != nil {
			return Criterion{}
		}
		return OneOf(ss...)
	case kindBool:
		return IsBool(r.Bool())
	default:
		// An unknown kind is a decode error, not a zero value: the zero
		// Criterion is invalid and Subscription construction rejects it, so
		// the reader must be poisoned before it gets there.
		r.Fail(fmt.Errorf("interest: unknown criterion kind %d", kind))
		return Criterion{}
	}
}

// AppendSubscription appends a subscription: attribute count plus sorted
// (name, criterion) pairs.
func AppendSubscription(b []byte, s Subscription) []byte {
	b = binenc.AppendUvarint(b, uint64(len(s.criteria)))
	for i := range s.criteria {
		b = binenc.AppendString(b, s.criteria[i].attr)
		b = AppendCriterion(b, s.criteria[i].crit)
	}
	return b
}

// ReadSubscription reads a subscription written by AppendSubscription.
func ReadSubscription(r *binenc.Reader) Subscription {
	n := r.Count(2)
	out := NewSubscription()
	for i := 0; i < n; i++ {
		name := r.String()
		c := ReadCriterion(r)
		if r.Err() != nil {
			return NewSubscription()
		}
		out = out.Where(name, c)
	}
	return out
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s Subscription) MarshalBinary() ([]byte, error) {
	return AppendSubscription(nil, s), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. data must hold
// exactly a subscription: trailing bytes are an error.
func (s *Subscription) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	got := ReadSubscription(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("interest: decoding subscription: %w", err)
	}
	*s = got
	return nil
}
