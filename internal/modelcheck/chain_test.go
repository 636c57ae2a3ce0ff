package modelcheck

import (
	"slices"
	"testing"
)

// TestChainMatchesSlice fills a chain past three blocks, twice over its
// kept storage, against a slice: every element, and every run that ends
// in or crosses a block boundary, reads the same.
func TestChainMatchesSlice(t *testing.T) {
	var c chain[int32]
	for round := 0; round < 2; round++ {
		c.reset()
		var ref []int32
		for i := 0; i < 3*chainBlock+100; i++ {
			v := int32(i*7 + round)
			c.push(v)
			ref = append(ref, v)
		}
		if c.len() != len(ref) {
			t.Fatalf("round %d: len %d, want %d", round, c.len(), len(ref))
		}
		for i, v := range ref {
			if c.at(i) != v {
				t.Fatalf("round %d: at(%d) = %d, want %d", round, i, c.at(i), v)
			}
		}
		for _, lo := range []int{0, 5, chainBlock - 3, chainBlock, 2*chainBlock - 1} {
			for _, n := range []int{0, 1, 3, 4, chainBlock + 5} {
				if got, want := c.slice(lo, lo+n), ref[lo:lo+n]; !slices.Equal(got, want) {
					t.Errorf("round %d: slice(%d, %d) = %v, want %v", round, lo, lo+n, got, want)
				}
			}
		}
	}
	if len(c.blocks) != 4 {
		t.Errorf("%d blocks after refilling, want the 4 of the first fill", len(c.blocks))
	}
}
