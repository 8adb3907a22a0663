// Package fec implements the erasure-coding layer of the coded-gossip
// extension: systematic (k, r) codes over GF(2^8) that turn the k gossip
// bodies of one send round into r extra "repair" symbols, such that any k of
// the k+r symbols reconstruct the originals. r = 1 is plain XOR parity;
// r ≥ 2 uses a Reed–Solomon code built from a Vandermonde matrix.
//
// The package knows gossips (core) and events, not the wire format: wire
// frames Generation values into the batch envelope. Coder is the whole
// layer a node drives — keying by destination subtree, reassembly, delayed
// revival — on one clock, the gossip round.
package fec

// GF(2^8) arithmetic with the AES-adjacent primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the conventional choice for
// Reed–Solomon erasure codes. A full 64 KiB product table keeps the
// per-byte encode kernel to one table load and one XOR.

const gfPoly = 0x11d

var (
	gfExp [512]byte // gfExp[i] = α^i, doubled so log-sums need no mod
	gfLog [256]byte // gfLog[x] for x ≠ 0
	gfMul [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for a := 1; a < 256; a++ {
		la := int(gfLog[a])
		for b := 1; b < 256; b++ {
			gfMul[a][b] = gfExp[la+int(gfLog[b])]
		}
	}
}

func mul(a, b byte) byte { return gfMul[a][b] }

func inv(a byte) byte {
	if a == 0 {
		panic("fec: inverse of zero")
	}
	return gfExp[255-int(gfLog[a])]
}

// pow returns a^n for n ≥ 0.
func pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return gfExp[(int(gfLog[a])*n)%255]
}

// mulAddSlice computes dst ^= c·src byte-wise. c = 0 is a no-op, c = 1 a
// plain XOR; both short-circuit the table walk. len(src) must not exceed
// len(dst).
func mulAddSlice(dst, src []byte, c byte) {
	switch c {
	case 0:
		return
	case 1:
		for i, s := range src {
			dst[i] ^= s
		}
	default:
		row := &gfMul[c]
		for i, s := range src {
			dst[i] ^= row[s]
		}
	}
}
