package fec

import (
	"errors"
	"fmt"
)

// Code is a systematic (k, r) erasure code: k source symbols in, r repair
// symbols out, any k of the k+r symbols recover the sources. The global
// generator matrix is G = [I; B] with B the r×k repair-coefficient block.
//
// For r = 1, B is the all-ones row — XOR parity — and both encode and
// reconstruct run the branch-free XOR kernel. For r ≥ 2, B comes from the
// systematic Vandermonde construction G = V·V_top⁻¹: V is the (k+r)×k
// Vandermonde matrix on distinct field elements 0…k+r−1, so any k of its
// rows are independent, and right-multiplying by V_top⁻¹ (an invertible
// change of basis) preserves that while turning the top block into I. This
// yields a true MDS code for every (k, r) — unlike the tempting "identity
// stacked on a Vandermonde" shortcut, whose mixed minors can be singular in
// characteristic 2 once r ≥ 3.
type Code struct {
	k, r int
	b    [][]byte // r rows × k cols of repair coefficients
}

// MaxSymbols caps k+r: the Vandermonde construction needs k+r distinct
// field elements.
const MaxSymbols = 256

var (
	// ErrInsufficient reports a reconstruction attempt with fewer than k
	// surviving symbols.
	ErrInsufficient = errors.New("fec: fewer than k symbols survive")
)

// NewCode builds the (k, r) code. k ≥ 1, r ≥ 0, k+r ≤ MaxSymbols.
func NewCode(k, r int) (*Code, error) {
	if k < 1 || r < 0 || k+r > MaxSymbols {
		return nil, fmt.Errorf("fec: invalid code parameters k=%d r=%d", k, r)
	}
	c := &Code{k: k, r: r}
	switch {
	case r == 0:
		// Degenerate: no repair rows.
	case r == 1:
		ones := make([]byte, k)
		for i := range ones {
			ones[i] = 1
		}
		c.b = [][]byte{ones}
	default:
		c.b = vandermondeRepairRows(k, r)
	}
	return c, nil
}

// vandermondeRepairRows computes B = V_bottom · V_top⁻¹ for the (k+r)×k
// Vandermonde matrix V[i][j] = i^j over GF(2^8).
func vandermondeRepairRows(k, r int) [][]byte {
	top := make([][]byte, k)
	for i := 0; i < k; i++ {
		top[i] = make([]byte, k)
		for j := 0; j < k; j++ {
			top[i][j] = pow(byte(i), j)
		}
	}
	topInv, err := invertMatrix(top)
	if err != nil {
		panic("fec: Vandermonde top block must be invertible: " + err.Error())
	}
	rows := make([][]byte, r)
	for x := 0; x < r; x++ {
		row := make([]byte, k)
		for j := 0; j < k; j++ {
			var acc byte
			for t := 0; t < k; t++ {
				acc ^= mul(pow(byte(k+x), t), topInv[t][j])
			}
			row[j] = acc
		}
		rows[x] = row
	}
	return rows
}

// EncodeInto fills the r repair symbols from the k source symbols. All
// slices must share one length; repairs are overwritten. It allocates
// nothing; for r = 1 the row is all ones, and mulAddSlice by 1 is the plain
// XOR loop.
func (c *Code) EncodeInto(repairs, src [][]byte) {
	if len(repairs) != c.r || len(src) != c.k {
		panic("fec: EncodeInto shape mismatch")
	}
	for x, rep := range repairs {
		for i := range rep {
			rep[i] = 0
		}
		row := c.b[x]
		for j, s := range src {
			mulAddSlice(rep, s, row[j])
		}
	}
}

// Reconstruct recovers the missing source symbols in place. shards holds
// the k source slots followed by up to r repair slots (shorter is fine:
// absent trailing repairs count as lost); nil marks a missing symbol, and
// all present symbols must share one length. On success every source slot
// i < k is non-nil; repair slots are left as they arrived. Returns
// ErrInsufficient when fewer than k symbols survive.
func (c *Code) Reconstruct(shards [][]byte) error {
	if len(shards) < c.k || len(shards) > c.k+c.r {
		return fmt.Errorf("fec: Reconstruct got %d shards for a (%d,%d) code", len(shards), c.k, c.r)
	}
	symLen := -1
	missing := 0
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			missing++
		} else if symLen < 0 {
			symLen = len(shards[i])
		}
	}
	if missing == 0 {
		return nil
	}
	// Pick the first k surviving rows of G.
	rows := make([]int, 0, c.k)
	for i := 0; i < len(shards) && len(rows) < c.k; i++ {
		if shards[i] != nil {
			rows = append(rows, i)
			if symLen < 0 {
				symLen = len(shards[i])
			}
		}
	}
	if len(rows) < c.k {
		return ErrInsufficient
	}

	// Single-erasure XOR fast path: with one source missing and the parity
	// row available, the missing symbol is the XOR of everything else.
	if c.r == 1 && missing == 1 {
		var hole int
		for i := 0; i < c.k; i++ {
			if shards[i] == nil {
				hole = i
			}
		}
		out := make([]byte, symLen)
		for i, s := range shards {
			if i != hole && s != nil {
				mulAddSlice(out, s, 1)
			}
		}
		shards[hole] = out
		return nil
	}

	// General path: invert the k×k submatrix A of G formed by the chosen
	// rows; source j is then row j of A⁻¹ applied to the chosen symbols.
	a := make([][]byte, c.k)
	for x, ri := range rows {
		row := make([]byte, c.k)
		if ri < c.k {
			row[ri] = 1
		} else {
			copy(row, c.b[ri-c.k])
		}
		a[x] = row
	}
	ainv, err := invertMatrix(a)
	if err != nil {
		return fmt.Errorf("fec: submatrix not invertible: %w", err)
	}
	for j := 0; j < c.k; j++ {
		if shards[j] != nil {
			continue
		}
		out := make([]byte, symLen)
		for i, ri := range rows {
			mulAddSlice(out, shards[ri], ainv[j][i])
		}
		shards[j] = out
	}
	return nil
}

// invertMatrix returns m⁻¹ via Gauss–Jordan elimination over GF(2^8).
// m is consumed (overwritten with the identity).
func invertMatrix(m [][]byte) ([][]byte, error) {
	n := len(m)
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, n)
		out[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for row := col; row < n; row++ {
			if m[row][col] != 0 {
				pivot = row
				break
			}
		}
		if pivot < 0 {
			return nil, errors.New("singular matrix")
		}
		m[col], m[pivot] = m[pivot], m[col]
		out[col], out[pivot] = out[pivot], out[col]
		if p := m[col][col]; p != 1 {
			pi := inv(p)
			scaleRow(m[col], pi)
			scaleRow(out[col], pi)
		}
		for row := 0; row < n; row++ {
			if row == col || m[row][col] == 0 {
				continue
			}
			f := m[row][col]
			mulAddSlice(m[row], m[col], f)
			mulAddSlice(out[row], out[col], f)
		}
	}
	return out, nil
}

func scaleRow(row []byte, c byte) {
	for i, v := range row {
		row[i] = mul(v, c)
	}
}
