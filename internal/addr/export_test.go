package addr

// NewPrefix builds a prefix from digit components. The slice is copied.
func NewPrefix(digits ...int) Prefix {
	d := make([]int, len(digits))
	copy(d, digits)
	return Prefix{digits: d}
}
