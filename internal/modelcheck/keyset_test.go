package modelcheck

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestKeySetMatchesMap drives the visited set and a Go map through one
// random sequence of inserts and lookups, past several block splits and
// directory doublings: every lookup must agree with the map, the zero key
// — a block's empty slot — be stored like any other, and the set's layout
// hold (checkLayout). Keys are drawn from a small pool, so that lookups
// hit. A quarter of them share their low bits, so that probe sequences
// collide, and a quarter start at a block's last slot, so that they wrap
// around its end; a quarter share their top 24 bits, so that, once the
// splits have told them from the rest, their block can only grow in place.
func TestKeySetMatchesMap(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	top := rnd.Uint64() &^ (1<<40 - 1)
	pool := []stateKey{{}, {0, 1}, {1, 0}}
	for len(pool) < 40000 {
		w := rnd.Uint64()
		switch rnd.Intn(4) {
		case 0:
			w &= 0xfff << 52 // the low bits, the slot, all zero
		case 1:
			w |= blockSlots - 1 // a full-size block's last slot
		case 2:
			w = top | w>>24
		}
		pool = append(pool, stateKey{w, rnd.Uint64() & 3})
	}
	var set keySet
	ref := map[stateKey]bool{}
	for step := 0; step < 120000; step++ {
		k := pool[rnd.Intn(len(pool))]
		if got, want := set.has(k), ref[k]; got != want {
			t.Fatalf("step %d: has(%x) = %v, the map says %v", step, k, got, want)
		}
		if rnd.Intn(2) == 0 {
			set.add(k)
			ref[k] = true
		}
	}
	if !ref[stateKey{}] {
		t.Fatal("the sequence never stored the zero key")
	}
	for _, k := range pool {
		if got, want := set.has(k), ref[k]; got != want {
			t.Fatalf("at the end: has(%x) = %v, the map says %v", k, got, want)
		}
	}
	n, blocks := checkLayout(t, &set)
	if set.zero {
		n++
	}
	if n != len(ref) {
		t.Errorf("the set holds %d keys, the map %d", n, len(ref))
	}
	if len(blocks) < 8 || len(set.dir) < 16 {
		t.Errorf("%d blocks under a directory of %d; want the blocks to have split past 8 and the directory to have doubled past 16", len(blocks), len(set.dir))
	}
	grown := false
	for _, b := range blocks {
		grown = grown || len(b.slots) > blockSlots
	}
	if !grown {
		t.Error("no block grew in place past blockSlots; the keys sharing their top bits should have made one")
	}
}

// TestKeySetSharedBitsGrowInPlace: no pattern of keys grows the directory
// past maxDirBits. Keys that share their top 40 bits never split their
// block, which grows in place under a one-entry directory. Keys that share
// their top maxDirBits bits, with one more key beside them for each of
// those bits that differs from them first at it, split at each of those
// bits, each split moving one key out, and then grow in place.
func TestKeySetSharedBitsGrowInPlace(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	for _, tc := range []struct {
		shared, peeled uint // top bits the run shares, keys that differ from it first at each of its first bits
		dir, blocks    int
	}{
		{40, 0, 1, 1},
		{maxDirBits, maxDirBits, 1 << maxDirBits, maxDirBits + 1},
	} {
		var set keySet
		prefix := rnd.Uint64() >> (64 - tc.shared) << (64 - tc.shared)
		for d := uint(1); d <= tc.peeled; d++ {
			set.add(stateKey{prefix ^ 1<<(64-d), 0})
		}
		for i := 0; i < 10000; i++ {
			set.add(stateKey{prefix | rnd.Uint64()>>tc.shared, rnd.Uint64()})
		}
		n, blocks := checkLayout(t, &set)
		if want := 10000 + int(tc.peeled); n != want || len(set.dir) != tc.dir || len(blocks) != tc.blocks {
			t.Errorf("%d shared bits: %d keys in %d blocks under %d entries; want %d in %d under %d",
				tc.shared, n, len(blocks), len(set.dir), want, tc.blocks, tc.dir)
		}
		if b := set.dir[prefix>>set.shift].b; len(b.slots) <= blockSlots {
			t.Errorf("%d shared bits: the run's block has %d slots; want it grown in place past %d", tc.shared, len(b.slots), blockSlots)
		}
	}
}

// TestKeySetAllocBytes: inserting 200,000 uniform keys allocates at most
// 1.1 times what the set then holds, since no block is thrown away; one
// table that doubles and rehashes allocates about twice what it ends up
// with.
func TestKeySetAllocBytes(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	keys := make([]stateKey, 200000)
	for i := range keys {
		keys[i] = stateKey{rnd.Uint64(), rnd.Uint64()}
	}
	var set keySet
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		set.add(k)
	}
	runtime.ReadMemStats(&after)
	_, blocks := checkLayout(t, &set)
	held := 32*cap(set.dir) + 16*cap(set.scratch)
	for _, b := range blocks {
		held += 16*cap(b.slots) + 48
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	if ratio := float64(allocated) / float64(held); ratio > 1.1 {
		t.Errorf("inserting %d keys allocated %d bytes for a set holding %d: %.2f times, want at most 1.1", len(keys), allocated, held, ratio)
	}
}

// checkLayout checks the set's directory and blocks against each other and
// returns the keys its blocks hold and the distinct blocks, in directory
// order. Each block fills a run of 1<<(bits-depth) directory entries,
// aligned on that length, each holding its table, and every key it holds has the run's index in
// its top bits; its count is its non-empty slots, and none is past three
// quarters full.
func checkLayout(t *testing.T, s *keySet) (int, []*keyBlock) {
	t.Helper()
	bits := 64 - s.shift
	if len(s.dir) != 1<<bits {
		t.Fatalf("a directory of %d entries for %d bits", len(s.dir), bits)
	}
	var blocks []*keyBlock
	n := 0
	for i := 0; i < len(s.dir); {
		b := s.dir[i].b
		if b.depth > bits {
			t.Fatalf("entry %d: a block of depth %d under %d bits", i, b.depth, bits)
		}
		span := 1 << (bits - b.depth)
		if i%span != 0 {
			t.Fatalf("entry %d: a block of depth %d starts off its alignment", i, b.depth)
		}
		for j := i; j < i+span; j++ {
			if e := s.dir[j]; e.b != b || len(e.slots) != len(b.slots) || &e.slots[0] != &b.slots[0] {
				t.Fatalf("entries %d and %d: one block of depth %d split between two, or an entry holding another table", i, j, b.depth)
			}
		}
		held := 0
		for _, k := range b.slots {
			if k == (stateKey{}) {
				continue
			}
			held++
			if int(k[0]>>s.shift)/span != i/span {
				t.Fatalf("entry %d: key %x is in another block's run", i, k)
			}
		}
		if held != b.n || 4*b.n > 3*len(b.slots) {
			t.Fatalf("entry %d: %d keys counted, %d held, in %d slots", i, b.n, held, len(b.slots))
		}
		blocks, n, i = append(blocks, b), n+held, i+span
	}
	return n, blocks
}
