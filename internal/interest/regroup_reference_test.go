package interest

// refAdd, refMerge, refCompact and refClosestPair are Summary's regrouping as
// it stood before a fold kept its pair scores, kept as the oracle the
// memoised search is held to: every Add rescans all pairs of the summary,
// scoring each afresh, and Merge takes one summary at a time.

func refAdd(s *Summary, sub Subscription) {
	s.id = 0
	if s.matchAll || sub.IsEmpty() {
		return
	}
	if sub.IsMatchAll() {
		s.matchAll = true
		s.subs = nil
		return
	}
	if s.maxSubs == 0 {
		s.maxSubs = DefaultMaxDisjuncts
	}
	for _, old := range s.subs {
		if old.Subsumes(sub) {
			return
		}
	}
	keep := s.subs[:0]
	for _, old := range s.subs {
		if !sub.Subsumes(old) {
			keep = append(keep, old)
		}
	}
	s.subs = append(keep, sub)
	refCompact(s)
}

func refMerge(s *Summary, t *Summary) {
	if t == nil {
		return
	}
	if t.matchAll {
		s.id = 0
		s.matchAll = true
		s.subs = nil
		return
	}
	for _, sub := range t.subs {
		refAdd(s, sub)
	}
}

func refCompact(s *Summary) {
	for len(s.subs) > s.maxSubs {
		i, j := refClosestPair(s)
		merged := s.subs[i].HullWith(s.subs[j])
		s.subs = append(s.subs[:j], s.subs[j+1:]...)
		s.subs = append(s.subs[:i], s.subs[i+1:]...)
		if merged.IsMatchAll() {
			s.matchAll = true
			s.subs = nil
			return
		}
		keep := s.subs[:0]
		for _, old := range s.subs {
			if !merged.Subsumes(old) {
				keep = append(keep, old)
			}
		}
		s.subs = append(keep, merged)
	}
}

func refClosestPair(s *Summary) (int, int) {
	bestI, bestJ, bestCost := 0, 1, int(^uint(0)>>1)
	for i := 0; i < len(s.subs); i++ {
		for j := i + 1; j < len(s.subs); j++ {
			dropped, size := s.subs[i].hullCostWith(s.subs[j])
			cost := dropped*1000 + size
			if cost < bestCost {
				bestI, bestJ, bestCost = i, j, cost
			}
		}
	}
	return bestI, bestJ
}
