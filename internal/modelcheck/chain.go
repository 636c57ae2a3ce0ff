package modelcheck

// chain is an append-only list kept in blocks of chainBlock elements that
// never move: growing it allocates each element's storage once and copies
// nothing, where a slice grown by append allocates and copies about five
// times its final size on the way (Go grows a large slice by a quarter).
// The search's arena and its sleep layers are chains; on the 3-node graphs
// at depth 14 their regrowth was a quarter of what an exploration allocated.
//
// Only the first block starts short, and doubles up to the full size, so
// a small exploration allocates little for it. reset empties the chain
// but keeps its blocks, for a list that is refilled (a sleep layer, two
// layers on).
type chain[T any] struct {
	blocks [][]T
	n      int
}

const (
	chainShift = 12
	chainBlock = 1 << chainShift
	chainFirst = 16 // the first block's first capacity
)

func (c *chain[T]) len() int { return c.n }

// at is the i-th element.
func (c *chain[T]) at(i int) T { return c.blocks[i>>chainShift][i&(chainBlock-1)] }

// push appends v.
func (c *chain[T]) push(v T) {
	b, off := c.n>>chainShift, c.n&(chainBlock-1)
	switch {
	case b == len(c.blocks):
		size := chainBlock
		if b == 0 {
			size = chainFirst
		}
		c.blocks = append(c.blocks, make([]T, 0, size))
	case off == cap(c.blocks[b]): // the first block, short of chainBlock
		grown := make([]T, off, min(2*off, chainBlock))
		copy(grown, c.blocks[b])
		c.blocks[b] = grown
	}
	c.blocks[b] = append(c.blocks[b][:off], v)
	c.n++
}

// slice is the elements from lo to hi: in place when they share a block,
// else copied.
func (c *chain[T]) slice(lo, hi int) []T {
	if lo == hi {
		return nil
	}
	if b := lo >> chainShift; (hi-1)>>chainShift == b {
		return c.blocks[b][lo&(chainBlock-1) : (hi-1)&(chainBlock-1)+1]
	}
	out := make([]T, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, c.at(i))
	}
	return out
}

// reset empties the chain, keeping its storage.
func (c *chain[T]) reset() { c.n = 0 }
