package ondemand

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/sim"
)

// engaged stands in for LDR's per-computation state: the fields a later
// copy of a request reads and writes through the pointer the cache hands
// out.
type engaged struct {
	lastHop    routing.NodeID
	replied    bool
	unicastFwd bool
	altHops    []routing.NodeID
}

// timerSeen is the duplicate cache as LDR, AODV and DSR each had it: a map
// plus one simulator timer and one closure per entry, the timer deleting
// the entry a cache life after it was added unless the entry is a later
// one under the same key (the guard a Reset between the two makes
// necessary). It is the reference Seen is checked against.
type timerSeen struct {
	s *sim.Simulator
	m map[ReqKey]*timerEntry
}

type timerEntry struct {
	expires time.Duration
	val     engaged
}

func (c *timerSeen) Get(key ReqKey) *engaged {
	if e := c.m[key]; e != nil {
		return &e.val
	}
	return nil
}

func (c *timerSeen) Add(key ReqKey) *engaged {
	e := &timerEntry{expires: c.s.Now() + RREQCacheLife}
	c.m[key] = e
	c.s.Schedule(RREQCacheLife, func() {
		if e := c.m[key]; e != nil && e.expires <= c.s.Now() {
			delete(c.m, key)
		}
	})
	return &e.val
}

func (c *timerSeen) Reset() { c.m = make(map[ReqKey]*timerEntry) }

// held counts the entries c holds, live or dead.
func (c *Seen[V]) held() int {
	n := 0
	for _, l := range c.byOrigin {
		n += len(l)
	}
	return n
}

func compareReqKey(a, b ReqKey) int {
	return cmp.Or(cmp.Compare(a.Origin, b.Origin), cmp.Compare(a.ID, b.ID))
}

// TestSeenMatchesTimerDrivenCache drives Seen and the timer-driven
// reference through random scripts of arrivals, crashes and clock
// advances on a real simulator. An arrival runs after every timer due at
// its instant — in a simulation it was scheduled later than a timer armed
// a whole cache life before, so it fires later — and the script keeps that
// order by advancing the clock with Run and then acting. Both caches must
// agree on seen or not seen at every arrival, at one nanosecond before an
// entry's expiry and at the expiry itself included, and on the engaged
// state a seen arrival finds; and Seen may lag the reference, which holds
// exactly the live entries, by no more than what its comment allows.
func TestSeenMatchesTimerDrivenCache(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(seed))
			s := sim.New()
			ref := &timerSeen{s: s, m: map[ReqKey]*timerEntry{}}
			var c Seen[engaged]
			var adds []time.Duration // when each entry since the last Reset was added
			var boundary, dups, fresh, most int

			arrive := func(key ReqKey) {
				now := s.Now()
				got, want := c.Get(key, now), ref.Get(key)
				if (got == nil) != (want == nil) {
					t.Fatalf("at %v, %v: seen is %v, the timer-driven cache says %v", now, key, got != nil, want != nil)
				}
				if got == nil {
					fresh++
					got, want = c.Add(key, now), ref.Add(key)
					adds = append(adds, now)
					hop := routing.NodeID(rnd.Intn(5))
					got.lastHop, want.lastHop = hop, hop

					// Right after an Add nothing older than two cache lives is held.
					recent := 0
					for _, at := range adds {
						if at > now-2*RREQCacheLife {
							recent++
						}
					}
					if c.held() > recent || c.held() < len(ref.m) {
						t.Fatalf("at %v: %d entries held, %d live, %d added within two cache lives", now, c.held(), len(ref.m), recent)
					}
					most = max(most, c.held()-len(ref.m))
					return
				}
				dups++
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("at %v, %v: engaged state %+v, the timer-driven cache holds %+v", now, key, *got, *want)
				}
				// What LDR does on a second touch, one of the three at random.
				switch hop := routing.NodeID(rnd.Intn(5)); rnd.Intn(3) {
				case 0:
					got.replied, want.replied = true, true
				case 1:
					got.unicastFwd, want.unicastFwd = true, true
				case 2:
					got.altHops, want.altHops = append(got.altHops, hop), append(want.altHops, hop)
				}
			}
			randomKey := func() ReqKey {
				return ReqKey{Origin: routing.NodeID(rnd.Intn(4)), ID: uint32(rnd.Intn(12))}
			}

			for step := 0; step < 4000; step++ {
				switch r := rnd.Intn(100); {
				case r < 2:
					c.Reset()
					ref.Reset()
					adds = adds[:0]
				case r < 12 && len(ref.m) > 0:
					// The same key just inside and exactly at the end of its life.
					keys := make([]ReqKey, 0, len(ref.m))
					for k := range ref.m {
						keys = append(keys, k)
					}
					slices.SortFunc(keys, compareReqKey)
					key := keys[rnd.Intn(len(keys))]
					expires := ref.m[key].expires
					if expires-1 < s.Now() {
						break
					}
					s.Run(expires - 1)
					if c.Get(key, s.Now()) == nil {
						t.Fatalf("%v forgotten at %v, 1 ns before its expiry", key, s.Now())
					}
					arrive(key)
					s.Run(expires)
					if c.Get(key, s.Now()) != nil {
						t.Fatalf("%v still seen at its expiry %v", key, expires)
					}
					arrive(key)
					boundary++
				case r < 15:
					s.Run(s.Now() + RREQCacheLife + time.Duration(rnd.Int63n(int64(2*RREQCacheLife))))
				default:
					s.Run(s.Now() + time.Duration(rnd.Int63n(int64(RREQCacheLife/4))))
					arrive(randomKey())
				}
			}
			if boundary < 50 || dups < 500 || fresh < 500 || most == 0 {
				t.Errorf("script too tame: %d boundary probes, %d duplicates, %d first sights, at most %d dead entries held", boundary, dups, fresh, most)
			}
		})
	}
}

// TestSeenSaveRestoreZeroAlloc: a model-check transition saves and
// restores the cache once each, into storage it has used before.
func TestSeenSaveRestoreZeroAlloc(t *testing.T) {
	var c Seen[engaged]
	for i := 0; i < 8; i++ {
		c.Add(ReqKey{Origin: 1, ID: uint32(i)}, 0).altHops = []routing.NodeID{2, 3}
	}
	var st SeenState[engaged]
	c.SaveState(&st, copyEngaged)
	c.Add(ReqKey{Origin: 2, ID: 1}, 0)
	c.Get(ReqKey{Origin: 1, ID: 3}, 0).replied = true
	c.RestoreState(&st, copyEngaged)
	if c.held() != 8 || c.Get(ReqKey{Origin: 1, ID: 3}, 0).replied || c.Get(ReqKey{Origin: 2, ID: 1}, 0) != nil {
		t.Fatalf("restore did not put the saved cache back: %d entries", c.held())
	}
	if n := testing.AllocsPerRun(100, func() {
		c.SaveState(&st, copyEngaged)
		c.RestoreState(&st, copyEngaged)
	}); n != 0 {
		t.Errorf("a warm save and restore allocate %v times, want 0", n)
	}
}
