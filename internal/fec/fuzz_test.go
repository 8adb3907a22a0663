package fec

import (
	"bytes"
	"testing"

	"pmcast/internal/event"
)

// FuzzFECRoundTrip checks decode(encode) identity under arbitrary erasure
// patterns: for every (k, r) and loss mask the fuzzer invents, whatever the
// receiver side recovers must be bit-identical to the original body (with its
// header metadata intact), and whenever no more than r of the k+r symbols
// are lost it must recover every missing source. Degenerate shapes — r = 0
// (coding off), k = 1, generations with every symbol lost — are seeded
// explicitly.
func FuzzFECRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint64(0b0011), []byte("0123456789abcdef0123456789abcdef"))
	f.Add(uint8(4), uint8(0), uint64(0), []byte("no repairs at all: uncoded path"))
	f.Add(uint8(1), uint8(1), uint64(0b01), []byte("k=1 parity"))
	f.Add(uint8(3), uint8(1), uint64(0b0111), []byte("all sources lost"))
	f.Add(uint8(2), uint8(2), uint64(0b1111), []byte("everything lost"))
	f.Add(uint8(8), uint8(4), uint64(0xf0), []byte("lose the repairs only"))

	f.Fuzz(func(t *testing.T, kRaw, rRaw uint8, mask uint64, data []byte) {
		k := 1 + int(kRaw)%16
		r := int(rRaw) % 5
		if len(data) == 0 {
			data = []byte{0}
		}
		srcs := make([]Source, k)
		for i := 0; i < k; i++ {
			n := 1 + (int(data[i%len(data)])+i)%48
			body := make([]byte, n)
			for j := range body {
				body[j] = data[(i*7+j)%len(data)]
			}
			srcs[i] = Source{
				ID:   event.ID{Origin: "f", Seq: uint64(i)},
				Meta: Meta{Depth: 1 + i%4, Rate: 1, Round: int(data[i%len(data)]) % 7},
				Body: body,
			}
		}

		enc := NewEncoder(k, r)
		gens := enc.Encode(srcs)
		if r == 0 {
			if gens != nil {
				t.Fatal("r=0 must produce no generations")
			}
			return
		}
		if len(gens) != 1 {
			t.Fatalf("want 1 generation, got %d", len(gens))
		}
		g := gens[0]

		c := receiver()
		lostSrc := map[int]bool{}
		var rec []recovered
		for i := 0; i < k; i++ {
			if mask&(1<<i) != 0 {
				lostSrc[i] = true
				continue
			}
			rec = append(rec, c.observeSource(srcs[i].ID, srcs[i].Body)...)
		}
		repairsDelivered := 0
		for j, rs := range g.Repairs {
			if mask&(1<<(k+j)) != 0 {
				continue
			}
			repairsDelivered++
			rec = append(rec, c.observeRepair("s", g, rs)...)
		}

		for _, rv := range rec {
			i := int(rv.id.Seq)
			if !lostSrc[i] {
				t.Fatalf("recovered symbol %d that was never lost", i)
			}
			if !bytes.Equal(rv.body, srcs[i].Body) {
				t.Fatalf("recovered body %d differs from the original", i)
			}
			if rv.meta != srcs[i].Meta {
				t.Fatalf("recovered meta %d differs: %+v != %+v", i, rv.meta, srcs[i].Meta)
			}
		}
		if len(lostSrc) > 0 && repairsDelivered >= len(lostSrc) {
			if len(rec) != len(lostSrc) {
				t.Fatalf("k=%d r=%d mask=%b: %d symbols survive but only %d of %d lost sources recovered",
					k, r, mask, (k-len(lostSrc))+repairsDelivered, len(rec), len(lostSrc))
			}
		}
		if st := c.Stats(); st.Corrupt != 0 {
			t.Fatalf("round trip flagged corrupt symbols: %+v", st)
		}
	})
}
