package ondemand

import (
	"cmp"
	"time"

	"github.com/manetlab/ldr/internal/routing"
)

// ReqKey identifies a route computation: its origin and the origin's
// request ID.
type ReqKey struct {
	Origin routing.NodeID
	ID     uint32
}

// CompareReqKey orders keys by origin, then request ID.
func CompareReqKey(a, b ReqKey) int {
	return cmp.Or(cmp.Compare(a.Origin, b.Origin), cmp.Compare(a.ID, b.ID))
}

// Seen is the RREQ duplicate cache: a computation a node has entered is
// remembered for exactly RREQCacheLife, so that every later copy of the
// same flood is recognised ("a node enters a computation at most once").
// V is what the protocol keeps per computation — LDR its engaged state,
// AODV and DSR nothing. The zero value is ready to use.
//
// No entry has a timer. An entry whose life is over is absent to Get from
// that instant on, which is what an expiry timer armed at Add would give:
// armed a whole cache life earlier, it fires before anything else
// scheduled for the same instant. The memory of dead entries is returned
// by a sweep of the whole map that Add runs at most once per cache life,
// so each entry is visited at most twice, and right after any Add the map
// holds nothing first seen more than two cache lives before it.
type Seen[V any] struct {
	m       map[ReqKey]*seenEntry[V] // allocated on first Add
	sweepAt time.Duration            // the earliest instant of the next sweep
}

type seenEntry[V any] struct {
	expires time.Duration
	val     V
}

// Get returns what is kept for key, or nil when key was not first seen
// within the last RREQCacheLife before now.
func (c *Seen[V]) Get(key ReqKey, now time.Duration) *V {
	if e := c.m[key]; e != nil && now < e.expires {
		return &e.val
	}
	return nil
}

// Add remembers key from now on, for RREQCacheLife, and returns its zero
// V for the caller to fill.
func (c *Seen[V]) Add(key ReqKey, now time.Duration) *V {
	if now >= c.sweepAt {
		for k, e := range c.m {
			if e.expires <= now {
				delete(c.m, k)
			}
		}
		c.sweepAt = now + RREQCacheLife
	}
	if c.m == nil {
		c.m = make(map[ReqKey]*seenEntry[V])
	}
	e := &seenEntry[V]{expires: now + RREQCacheLife}
	c.m[key] = e
	return &e.val
}

// Each calls fn for every computation Get would find at now, in no
// particular order.
func (c *Seen[V]) Each(now time.Duration, fn func(ReqKey, *V)) {
	for k, e := range c.m {
		if now < e.expires {
			fn(k, &e.val)
		}
	}
}

// Reset forgets everything (crash/reboot).
func (c *Seen[V]) Reset() { clear(c.m) }

// SeenState is a Seen saved (see routing.ModelStater).
type SeenState[V any] struct {
	entries []routing.Saved[ReqKey, seenEntry[V]]
	sweepAt time.Duration
}

// SaveState copies the cache into s's storage, for the embedding
// protocol's SaveModelState. cp deep-copies a V as routing.SavePtrMap
// asks; nil assigns.
func (c *Seen[V]) SaveState(s *SeenState[V], cp func(dst, src *V)) {
	s.entries = routing.SavePtrMap(s.entries, c.m, CompareReqKey, entryCopier(cp))
	s.sweepAt = c.sweepAt
}

// RestoreState puts back what SaveState copied out of this cache, with
// the same cp.
func (c *Seen[V]) RestoreState(s *SeenState[V], cp func(dst, src *V)) {
	routing.RestorePtrMap(c.m, s.entries, CompareReqKey, entryCopier(cp))
	c.sweepAt = s.sweepAt
}

// entryCopier lifts a copy of V to a copy of the entry holding it.
func entryCopier[V any](cp func(dst, src *V)) func(dst, src *seenEntry[V]) {
	if cp == nil {
		return nil
	}
	return func(dst, src *seenEntry[V]) {
		dst.expires = src.expires
		cp(&dst.val, &src.val)
	}
}
