package core

import "math/bits"

// Introspection the tests read a process through.

// Popcount returns the number of set bits.
func (p *MatchProfile) Popcount() int {
	n := bits.OnesCount64(p.word)
	for _, w := range p.wide {
		n += bits.OnesCount64(w)
	}
	return n
}

// Stats reports protocol counters: messages emitted and first receptions.
func (p *Process) Stats() (sent, received int) { return p.sent, p.received }
