package modelcheck

// keySet is the set of visited state keys: an open-addressing table with
// linear probing. A key is already a uniform hash, so its first word is
// its slot; a Go map would hash it again. The all-zero key marks an empty
// slot, so the set keeps it, if it holds it, in a flag of its own. The
// table starts at minKeySlots and doubles when three quarters full.
//
// An exploration's workers read the set during a round, and only the merge,
// between rounds, writes it (modelcheck.go).
type keySet struct {
	slots []stateKey // a power of two of them, or none
	n     int        // non-zero keys in slots
	zero  bool       // the set holds the all-zero key
}

// minKeySlots is the table's first size: 1 KB, small against a depth-1
// exploration's other allocations.
const minKeySlots = 64

// has reports whether the set holds k.
func (s *keySet) has(k stateKey) bool {
	if k == (stateKey{}) {
		return s.zero
	}
	if len(s.slots) == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	for i := k[0] & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return true
		case stateKey{}:
			return false
		}
	}
}

// add inserts k.
func (s *keySet) add(k stateKey) {
	if k == (stateKey{}) {
		s.zero = true
		return
	}
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := k[0] & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return
		case stateKey{}:
			s.slots[i] = k
			s.n++
			return
		}
	}
}

// grow doubles the table and puts every key back.
func (s *keySet) grow() {
	old := s.slots
	s.slots, s.n = make([]stateKey, max(minKeySlots, 2*len(old))), 0
	for _, k := range old {
		if k != (stateKey{}) {
			s.add(k)
		}
	}
}
