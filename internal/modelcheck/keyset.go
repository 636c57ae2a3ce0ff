package modelcheck

// keySet is the set of visited state keys, extendible hashing over
// blocks of a fixed size. A key is already a uniform hash, so its first
// word places it without hashing again: its top bits pick a block through
// the directory, and its low bits its slot in the block, an
// open-addressing table with linear probing. The all-zero key marks an
// empty slot, so the set keeps it, if it holds it, in a flag of its own.
//
// The first block starts at minKeySlots and doubles in place up to
// blockSlots. A block of blockSlots that passes three quarters full splits
// by the next top bit: the keys that have it move to one new block, and
// the rest go back into the block's own storage. So every full-size block
// is allocated once and never thrown away; only the directory doubles. A
// block whose keys all share that bit, or that already reads maxDirBits of
// them, grows in place instead (and, past blockSlots, never splits again),
// so no pattern of keys can make the directory grow without limit.
//
// An exploration's workers read the set during a round, and only the merge,
// between rounds, writes it (modelcheck.go).
type keySet struct {
	dir     []keyRef   // 1<<(64-shift) entries; a block of depth d fills 1<<(64-shift-d) in a row
	shift   uint       // a key's directory entry is its first word >> shift
	zero    bool       // the set holds the all-zero key
	scratch []stateKey // a splitting block's keys
}

// keyRef is a directory entry: a block, and the block's table copied
// beside it, so that a lookup loads the entry and then the slot, with no
// load of the block between them.
type keyRef struct {
	slots []stateKey
	b     *keyBlock
}

// keyBlock is one open-addressing table of the set.
type keyBlock struct {
	slots []stateKey // a power of two of them
	n     int        // keys in slots
	depth uint       // top bits of the first word every key in the block shares
}

const (
	// minKeySlots is the first block's first size: 1 KB, small against a
	// depth-1 exploration's other allocations.
	minKeySlots = 64
	// blockSlots is the size a block splits at: 16 KB.
	blockSlots = 1024
	// maxDirBits bounds the directory at 1<<maxDirBits entries (32 MB),
	// which uniform keys reach only past half a billion of them.
	maxDirBits = 20
)

// has reports whether the set holds k.
func (s *keySet) has(k stateKey) bool {
	if k == (stateKey{}) {
		return s.zero
	}
	if s.dir == nil {
		return false
	}
	_, ok := find(s.dir[k[0]>>s.shift].slots, k)
	return ok
}

// add inserts k.
func (s *keySet) add(k stateKey) {
	if k == (stateKey{}) {
		s.zero = true
		return
	}
	if s.dir == nil {
		b := &keyBlock{slots: make([]stateKey, minKeySlots)}
		s.dir, s.shift = []keyRef{{b.slots, b}}, 64
	}
	b := s.dir[k[0]>>s.shift].b
	if 4*(b.n+1) > 3*len(b.slots) {
		if len(b.slots) != blockSlots || b.depth == maxDirBits || !s.split(b) {
			b.resize(2 * len(b.slots))
			s.point(b, k[0])
		}
		b = s.dir[k[0]>>s.shift].b
	}
	if i, ok := find(b.slots, k); !ok {
		b.slots[i] = k
		b.n++
	}
}

// point makes every directory entry that shares its top b.depth bits with
// the word w refer to b and its table.
func (s *keySet) point(b *keyBlock, w uint64) {
	span := uint64(1) << (64 - s.shift - b.depth)
	first := (w >> s.shift) &^ (span - 1)
	for i := first; i < first+span; i++ {
		s.dir[i] = keyRef{b.slots, b}
	}
}

// split moves the keys of b that have its next top bit to a new block of
// blockSlots and puts the rest back into b's storage, doubling the
// directory if b already read all of its bits. It changes nothing and
// reports false when all of b's keys agree on that bit.
func (s *keySet) split(b *keyBlock) bool {
	bit := uint64(1) << (63 - b.depth)
	if s.scratch == nil {
		s.scratch = make([]stateKey, 0, 3*blockSlots/4)
	}
	keys, moved := s.scratch[:0], 0
	for _, k := range b.slots {
		if k != (stateKey{}) {
			keys = append(keys, k)
			if k[0]&bit != 0 {
				moved++
			}
		}
	}
	s.scratch = keys
	if moved == 0 || moved == len(keys) {
		return false
	}
	if b.depth == 64-s.shift {
		dir := make([]keyRef, 2*len(s.dir))
		for i, e := range s.dir {
			dir[2*i], dir[2*i+1] = e, e
		}
		s.dir, s.shift = dir, s.shift-1
	}
	b.depth++
	nb := &keyBlock{slots: make([]stateKey, blockSlots), depth: b.depth}
	s.point(nb, keys[0][0]|bit)
	clear(b.slots)
	b.n = 0
	for _, k := range keys {
		to := b
		if k[0]&bit != 0 {
			to = nb
		}
		i, _ := find(to.slots, k)
		to.slots[i] = k
		to.n++
	}
	return true
}

// resize moves b's keys into a new table of size slots.
func (b *keyBlock) resize(size int) {
	old := b.slots
	b.slots = make([]stateKey, size)
	for _, k := range old {
		if k != (stateKey{}) {
			i, _ := find(b.slots, k)
			b.slots[i] = k
		}
	}
}

// find returns k's slot and true if slots holds k, or else the empty slot
// it would go in and false.
func find(slots []stateKey, k stateKey) (uint64, bool) {
	mask := uint64(len(slots) - 1)
	for i := k[0] & mask; ; i = (i + 1) & mask {
		switch slots[i] {
		case k:
			return i, true
		case stateKey{}:
			return i, false
		}
	}
}
