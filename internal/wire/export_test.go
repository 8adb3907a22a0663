package wire

import "pmcast/internal/binenc"

// Decode unframes a batch encoded by Encode.
func Decode(data []byte) (Batch, error) {
	r := binenc.NewReader(data)
	b, err := readBatch(r)
	if err != nil {
		return Batch{}, err
	}
	return b, finish(r)
}
