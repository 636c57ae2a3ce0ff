package modelcheck

import (
	"math/rand"
	"testing"
)

// TestKeySetMatchesMap drives the visited set and a Go map through one
// random sequence of inserts and lookups, past several doublings: every
// lookup must agree with the map, and the zero key — the table's empty
// slot — be stored like any other. Keys are drawn from a small pool, with
// words that share their low bits, so that lookups hit, probe sequences
// collide and wrap around the table's end.
func TestKeySetMatchesMap(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	pool := []stateKey{{}, {0, 1}, {1, 0}}
	for len(pool) < 20000 {
		w := rnd.Uint64()
		switch rnd.Intn(4) {
		case 0:
			w &= 0xff << 56 // the low bits, the slot, all zero
		case 1:
			w |= 1<<16 - 1 // the last slots of a table of up to 2^16
		}
		pool = append(pool, stateKey{w, rnd.Uint64() & 3})
	}
	var set keySet
	ref := map[stateKey]bool{}
	for step := 0; step < 60000; step++ {
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
	if len(set.slots) < 2*minKeySlots {
		t.Fatalf("the table never grew: %d slots", len(set.slots))
	}
	for _, k := range pool {
		if got, want := set.has(k), ref[k]; got != want {
			t.Fatalf("at the end: has(%x) = %v, the map says %v", k, got, want)
		}
	}
	n := set.n
	if set.zero {
		n++
	}
	if n != len(ref) {
		t.Errorf("the set holds %d keys, the map %d", n, len(ref))
	}
}
