package ondemand

import (
	"encoding/binary"
	"slices"
	"time"

	"github.com/manetlab/ldr/internal/routing"
)

// ReqKey identifies a route computation: its origin and the origin's
// request ID.
type ReqKey struct {
	Origin routing.NodeID
	ID     uint32
}

// Seen is the RREQ duplicate cache: a computation a node has entered is
// remembered for exactly RREQCacheLife, so that every later copy of the
// same flood is recognised ("a node enters a computation at most once").
// V is what the protocol keeps per computation — LDR its engaged state,
// AODV and DSR nothing. The zero value is ready to use.
//
// The cache is one short list per origin, indexed by origin id and kept in
// ascending request ID, so every walk visits keys in (origin, ID) order.
// No entry has a timer. An entry whose life is over is absent to Get from
// that instant on, which is what an expiry timer armed at Add would give:
// armed a whole cache life earlier, it fires before anything else
// scheduled for the same instant. Add drops the dead entries of the list
// it adds to, and those of every list in a sweep it runs at most once per
// cache life, so right after any Add the cache holds nothing first seen
// more than two cache lives before it. A list keeps its storage as
// entries leave it.
type Seen[V any] struct {
	byOrigin [][]seenEntry[V] // grown on first sight of an origin
	sweepAt  time.Duration    // the earliest instant of the next sweep
}

type seenEntry[V any] struct {
	id      uint32
	expires time.Duration
	val     V
}

// find returns where id is, or would be inserted, in an origin's list.
// An origin's request IDs rise, so the newest entry is tried first: a
// later copy of the latest flood, or the next one, is settled there.
func find[V any](l []seenEntry[V], id uint32) (int, bool) {
	n := len(l)
	if n == 0 || l[n-1].id < id {
		return n, false
	}
	if l[n-1].id == id {
		return n - 1, true
	}
	lo, hi := 0, n-1
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if l[h].id < id {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, l[lo].id == id
}

// live drops the entries of l that are dead at now, in place, and clears
// the slots they leave behind, so a dropped entry pins nothing and shares
// no storage with a live one.
func live[V any](l []seenEntry[V], now time.Duration) []seenEntry[V] {
	k := 0
	for k < len(l) && l[k].expires > now {
		k++
	}
	for i := k + 1; i < len(l); i++ {
		if l[i].expires > now {
			l[k] = l[i]
			k++
		}
	}
	clear(l[k:])
	return l[:k]
}

// Get returns what is kept for key, or nil when key was not first seen
// within the last RREQCacheLife before now.
func (c *Seen[V]) Get(key ReqKey, now time.Duration) *V {
	if int(key.Origin) >= len(c.byOrigin) {
		return nil
	}
	l := c.byOrigin[key.Origin]
	if i, ok := find(l, key.ID); ok && now < l[i].expires {
		return &l[i].val
	}
	return nil
}

// Add remembers key from now on, for RREQCacheLife, and returns its zero
// V for the caller to fill. The pointer is valid until the next Add.
func (c *Seen[V]) Add(key ReqKey, now time.Duration) *V {
	if now >= c.sweepAt {
		for o := range c.byOrigin {
			c.byOrigin[o] = live(c.byOrigin[o], now)
		}
		c.sweepAt = now + RREQCacheLife
	}
	if n := len(c.byOrigin); int(key.Origin) >= n {
		// Lists a restore cut off keep their storage when they come back.
		c.byOrigin = routing.Resize(c.byOrigin, int(key.Origin)+1)
		for o := n; o < len(c.byOrigin); o++ {
			c.byOrigin[o] = c.byOrigin[o][:0]
		}
	}
	l := live(c.byOrigin[key.Origin], now)
	i, ok := find(l, key.ID)
	if !ok {
		l = slices.Insert(l, i, seenEntry[V]{})
	}
	l[i] = seenEntry[V]{id: key.ID, expires: now + RREQCacheLife}
	c.byOrigin[key.Origin] = l
	return &l[i].val
}

// AppendState serializes the computations Get would find at now, for the
// embedding protocol's routing.ModelStater encoding: their count, then
// each key in ascending (origin, request ID) order followed by what val
// appends for its value (nil appends nothing).
func (c *Seen[V]) AppendState(out []byte, now time.Duration, val func(out []byte, v *V) []byte) []byte {
	n := 0
	for _, l := range c.byOrigin {
		for i := range l {
			if now < l[i].expires {
				n++
			}
		}
	}
	out = binary.AppendUvarint(out, uint64(n))
	for o, l := range c.byOrigin {
		for i := range l {
			if now >= l[i].expires {
				continue
			}
			out = binary.AppendVarint(out, int64(o))
			out = binary.AppendUvarint(out, uint64(l[i].id))
			if val != nil {
				out = val(out, &l[i].val)
			}
		}
	}
	return out
}

// Reset forgets everything (crash/reboot).
func (c *Seen[V]) Reset() {
	for o, l := range c.byOrigin {
		clear(l)
		c.byOrigin[o] = l[:0]
	}
}

// SeenState is a Seen saved (see routing.ModelStater).
type SeenState[V any] struct{ c Seen[V] }

// SaveState copies the cache into s's storage, for the embedding
// protocol's SaveModelState. A V is copied by assignment, so it must hold
// no storage of its own.
func (c *Seen[V]) SaveState(s *SeenState[V]) { s.c.copyFrom(c) }

// RestoreState puts back what SaveState copied out of this cache.
func (c *Seen[V]) RestoreState(s *SeenState[V]) { c.copyFrom(&s.c) }

// copyFrom makes c an entry-for-entry copy of src, list lengths included,
// in the storage c already holds.
func (c *Seen[V]) copyFrom(src *Seen[V]) {
	c.byOrigin = routing.Resize(c.byOrigin, len(src.byOrigin))
	for o, sl := range src.byOrigin {
		c.byOrigin[o] = routing.Resize(c.byOrigin[o], len(sl))
		copy(c.byOrigin[o], sl)
	}
	c.sweepAt = src.sweepAt
}
