package core

import "math/bits"

// Introspection the tests read a process through.

// Popcount returns the number of set bits.
func (p *MatchProfile) Popcount() int {
	n := 0
	for _, w := range p.Bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Stats reports protocol counters: messages emitted and first receptions.
func (p *Process) Stats() (sent, received int) { return p.sent, p.received }
