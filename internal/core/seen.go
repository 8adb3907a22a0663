package core

import "pmcast/internal/event"

// seenSet is a process's duplicate filter, Figure 3's "if event ∉ events":
// every event ID the process ever received or multicast, held per origin as a
// window of sequence numbers instead of one map entry per ID. It is exact — it
// never forgets and answers every ID as a set of IDs would — so an origin
// that publishes in order costs a bitmap of a few words however long it
// runs, while one whose numbers arrive with gaps that never fill keeps the
// numbers past its window in 64-number chunks: one map entry per number at
// worst, one per 64 where most arrive.
type seenSet struct {
	origins map[string]*seqWindow
	// lastOrigin's window answers without a map lookup: buffers, round
	// envelopes and a publisher's stream arrive in (Origin, Seq) order, so
	// consecutive lookups mostly share an origin.
	lastOrigin string
	last       *seqWindow
}

// window returns origin's window, creating it when create is set; nil when
// the origin was never seen and create is not.
func (s *seenSet) window(origin string, create bool) *seqWindow {
	if s.last != nil && s.lastOrigin == origin {
		return s.last
	}
	w := s.origins[origin]
	if w == nil {
		if !create {
			return nil
		}
		if s.origins == nil {
			s.origins = make(map[string]*seqWindow)
		}
		w = new(seqWindow)
		s.origins[origin] = w
	}
	s.lastOrigin, s.last = origin, w
	return w
}

// has reports whether id is in the set.
func (s *seenSet) has(id event.ID) bool {
	w := s.window(id.Origin, false)
	return w != nil && w.has(id.Seq)
}

// hasBytes is has for an ID whose origin is still the bytes of a received
// frame. Neither lookup allocates: the compiler reads string(origin) in a
// comparison or a map index in place. A hit does not move the cache, whose
// key is a string: round envelopes interleave many origins, and a
// udp_broadcast profile with a refreshable cache (the origin's string kept
// in every window) still spent most of this lookup in the map.
func (s *seenSet) hasBytes(origin []byte, seq uint64) bool {
	w := s.last
	if w == nil || s.lastOrigin != string(origin) {
		w = s.origins[string(origin)]
	}
	return w != nil && w.has(seq)
}

// add puts id in the set and reports whether it was new.
func (s *seenSet) add(id event.ID) bool {
	return s.window(id.Origin, true).add(id.Seq)
}

// reset empties the set.
func (s *seenSet) reset() {
	clear(s.origins)
	s.lastOrigin, s.last = "", nil
}

// windowWords bounds a window's bitmap: 64 words, 4 096 sequence numbers
// past its base.
const windowWords = 64

// seqWindow is one origin's seen sequence numbers. Publishers number their
// events from 1, so the window counts positions k = seq−1 (sequence number 0,
// which nobody publishes but anybody may send, is position 2^64−1):
//
//   - every position below base is seen; base is a multiple of 64 and
//     advances only over full words, so a forged far-future number cannot
//     move it;
//   - words is a bitmap of positions [base, base+64·len(words)), at most
//     windowWords words;
//   - far holds the seen positions beyond the bitmap, exactly, as 64-position
//     chunks keyed by position/64; when base advances, the chunks the bitmap
//     now reaches move into it.
type seqWindow struct {
	base  uint64
	words []uint64
	far   map[uint64]uint64
}

// has reports whether sequence number seq is seen.
func (w *seqWindow) has(seq uint64) bool {
	k := seq - 1
	if k < w.base {
		return true
	}
	off := k - w.base
	if off >= windowWords*64 {
		return w.far[k/64]&(1<<(k%64)) != 0
	}
	i := off / 64
	return i < uint64(len(w.words)) && w.words[i]&(1<<(off%64)) != 0
}

// add marks seq seen and reports whether it was new.
func (w *seqWindow) add(seq uint64) bool {
	k := seq - 1
	if k < w.base {
		return false
	}
	off, bit := k-w.base, uint64(1)<<(k%64)
	if off >= windowWords*64 {
		c := k / 64
		if w.far[c]&bit != 0 {
			return false
		}
		if w.far == nil {
			w.far = make(map[uint64]uint64)
		}
		w.far[c] |= bit
		return true
	}
	i := int(off / 64)
	w.grow(i + 1)
	if w.words[i]&bit != 0 {
		return false
	}
	w.words[i] |= bit
	if i == 0 && w.words[0] == ^uint64(0) {
		w.advance()
	}
	return true
}

// grow extends the bitmap with zero words to at least n.
func (w *seqWindow) grow(n int) {
	if n > len(w.words) {
		w.words = append(w.words, make([]uint64, n-len(w.words))...)
	}
}

// advance moves base past the bitmap's leading full words, then pulls in the
// far chunks the bitmap reaches from its new base — which may fill its first
// word again.
func (w *seqWindow) advance() {
	for len(w.words) > 0 && w.words[0] == ^uint64(0) {
		full := 1
		for full < len(w.words) && w.words[full] == ^uint64(0) {
			full++
		}
		w.words = w.words[:copy(w.words, w.words[full:])]
		w.base += 64 * uint64(full)
		if len(w.far) == 0 {
			continue
		}
		// The bitmap's reach moved up by full words; only those can hold
		// chunks that far kept.
		first := w.base/64 + windowWords - uint64(full)
		for c := first; c < first+uint64(full); c++ {
			if m, ok := w.far[c]; ok {
				delete(w.far, c)
				i := int(c - w.base/64)
				w.grow(i + 1)
				w.words[i] = m
			}
		}
	}
}
