package wire

import (
	"fmt"

	"pmcast/internal/binenc"
)

// Decode unframes a message encoded by Encode.
func Decode(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty frame", ErrBadPayload)
	}
	r := binenc.NewReader(data[1:])
	return decodeFrom(r, data[0])
}
