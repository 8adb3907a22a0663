package membership

import "pmcast/internal/addr"

// Self returns the owning address.
func (s *Service) Self() addr.Address { return s.cfg.Self }

// Lookup returns the record for an address.
func (s *Service) Lookup(a addr.Address) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r, _, ok := s.peekLocked(a.Key()); ok {
		return *r, true
	}
	return Record{}, false
}

// Len returns the number of roster lines.
func (r *Roster) Len() int { return len(r.Records) }
