package core

import (
	"math"
	"testing"

	"pmcast/internal/event"
)

// TestSeenWindowStaysSmall: an in-order publisher costs a word or two however
// long it runs; a forged far-future sequence number sits in far without
// moving the base, so the origin's real stream is still taken; and numbers
// that arrived beyond the window join it as the window reaches them, leaving
// far empty once the gaps below them fill.
func TestSeenWindowStaysSmall(t *testing.T) {
	var s seenSet
	for seq := uint64(1); seq <= 100_000; seq++ {
		if !s.add(event.ID{Origin: "in-order", Seq: seq}) {
			t.Fatalf("in-order %d refused", seq)
		}
	}
	if w := s.window("in-order", false); len(w.words) > 1 || len(w.far) != 0 {
		t.Errorf("an in-order publisher of 100 000 events holds %d words and %d far chunks", len(w.words), len(w.far))
	}

	if !s.add(event.ID{Origin: "forged", Seq: 1 << 63}) {
		t.Fatal("forged number refused")
	}
	for seq := uint64(1); seq <= 10_000; seq++ {
		if !s.add(event.ID{Origin: "forged", Seq: seq}) {
			t.Fatalf("real event %d after a forged 2^63 refused", seq)
		}
	}
	w := s.window("forged", false)
	if len(w.words) > windowWords || len(w.far) != 1 || w.base > 10_000 {
		t.Errorf("after a forged 2^63: %d words, %d far chunks, base %d", len(w.words), len(w.far), w.base)
	}
	if !s.has(event.ID{Origin: "forged", Seq: 1 << 63}) || s.has(event.ID{Origin: "forged", Seq: 1<<63 - 1}) {
		t.Error("the forged number is not held exactly")
	}

	for seq := uint64(5_000); seq <= 9_000; seq += 3 {
		s.add(event.ID{Origin: "late", Seq: seq})
	}
	if len(s.window("late", false).far) == 0 {
		t.Fatal("numbers past the window did not land in far")
	}
	for seq := uint64(1); seq <= 9_000; seq++ {
		held := seq >= 5_000 && (seq-5_000)%3 == 0
		if fresh := s.add(event.ID{Origin: "late", Seq: seq}); fresh == held {
			t.Fatalf("add(late#%d) = %v, held before: %v", seq, fresh, held)
		}
	}
	if w := s.window("late", false); len(w.words) > 1 || len(w.far) != 0 {
		t.Errorf("once the gaps filled: %d words, %d far chunks", len(w.words), len(w.far))
	}
	if s.has(event.ID{Origin: "late", Seq: 9_001}) || s.has(event.ID{Origin: "never", Seq: 1}) {
		t.Error("an unseen ID reads as seen")
	}
	late, never := []byte("late"), []byte("never")
	if allocs := testing.AllocsPerRun(100, func() {
		if !s.hasBytes(late, 9_000) || s.hasBytes(late, 9_001) || s.hasBytes(never, 1) {
			t.Fatal("hasBytes disagrees with has")
		}
	}); allocs != 0 {
		t.Errorf("hasBytes: %.1f allocations, want 0", allocs)
	}

	s.reset()
	if s.has(event.ID{Origin: "in-order", Seq: 1}) || s.window("in-order", false) != nil {
		t.Error("reset left an origin")
	}
}

// FuzzSeenWindowAgainstMap holds the seen-set to a plain set of IDs under
// byte-chosen add and has calls over three origins. Each pair of bytes is one
// operation and its argument; the numbers cover dense runs that advance a
// window, shuffles around an origin's cursor, duplicates, 0 and the largest
// values, gaps, and far-future numbers the window reaches later.
func FuzzSeenWindowAgainstMap(f *testing.F) {
	f.Add([]byte{0x00, 0xff, 0x08, 0x10, 0x11, 0x02, 0x20, 0xff})
	f.Add([]byte{0x21, 3, 0x20, 0, 0x31, 1, 0x30, 2, 0x19, 0})
	// Far-future numbers, then enough dense runs to reach them.
	run := []byte{0x10, 0x10, 0x10, 0x80}
	for i := 0; i < 20; i++ {
		run = append(run, 0x00, 0xff)
	}
	f.Add(append(run, 0x01, 0x7f, 0x21, 0x10))
	f.Add([]byte{0x02, 40, 0x00, 0xff, 0x06, 0xff, 0x30, 3, 0x31, 3, 0x28, 0x09, 0x29, 0x09})
	origins := []string{"0.1", "2.3", "1.1"}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s seenSet
		ref := make(map[event.ID]struct{})
		var cursor [3]uint64
		var prev uint64
		check := func(id event.ID, add bool) {
			t.Helper()
			_, want := ref[id]
			if add {
				if fresh := s.add(id); fresh == want {
					t.Fatalf("add(%v) = %v, but the map holds it: %v", id, fresh, want)
				}
				ref[id] = struct{}{}
			} else if got := s.has(id); got != want {
				t.Fatalf("has(%v) = %v, map %v", id, got, want)
			} else if got := s.hasBytes([]byte(id.Origin), id.Seq); got != want {
				t.Fatalf("hasBytes(%v) = %v, map %v", id, got, want)
			}
		}
		for ; len(data) >= 2; data = data[2:] {
			op, arg := data[0], uint64(data[1])
			o := int(op>>1&3) % len(origins)
			var seq uint64
			switch op >> 3 % 8 {
			case 0: // a dense run from the cursor: what advances a window
				for j := uint64(0); j <= arg; j++ {
					cursor[o]++
					check(event.ID{Origin: origins[o], Seq: cursor[o]}, true)
				}
				continue
			case 1: // shuffled around the cursor, either side (wrapping below 0)
				seq = cursor[o] + arg%64 - 32
			case 2: // beyond the window, where the cursor's runs reach later
				seq = cursor[o] + windowWords*64 + arg*16
			case 3: // the extremes
				seq = []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1, 1 << 63}[arg%5]
			case 4: // a gap the cursor jumps
				cursor[o] += arg * 8
				continue
			default: // the last number again, perhaps under another origin
				seq = prev
			}
			prev = seq
			check(event.ID{Origin: origins[o], Seq: seq}, op&1 == 0)
			if w := s.window(origins[o], false); w != nil && len(w.words) > windowWords {
				t.Fatalf("%s's bitmap grew to %d words", origins[o], len(w.words))
			}
		}
		for id := range ref {
			if !s.has(id) || !s.hasBytes([]byte(id.Origin), id.Seq) {
				t.Fatalf("%v was added and reads as unseen", id)
			}
		}
	})
}
