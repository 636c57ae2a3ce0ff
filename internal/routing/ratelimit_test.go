package routing_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/routing"
)

// mapLimiter is the limiter as it was — a map of bucket pointers, a bucket
// created full at its neighbor's first message — kept as the reference the
// slice-indexed RateLimiter is checked against.
type mapLimiter struct {
	rate, burst float64
	buckets     map[routing.NodeID]*mapBucket
}

type mapBucket struct {
	tokens float64
	last   time.Duration
}

func (r *mapLimiter) Allow(from routing.NodeID, now time.Duration) bool {
	b := r.buckets[from]
	if b == nil {
		b = &mapBucket{tokens: r.burst, last: now}
		r.buckets[from] = b
	} else {
		b.tokens += (now - b.last).Seconds() * r.rate
		if b.tokens > r.burst {
			b.tokens = r.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// TestRateLimiterMatchesMapReference drives both limiters with the same
// bursty arrivals, crashes, and snapshots restored later (also across a
// crash, and onto a limiter that has since met more neighbors), and
// requires the same answer to every Allow.
func TestRateLimiterMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		rate, burst := 0.5+r.Float64()*4, 1+r.Intn(12)
		got := routing.NewRateLimiter(rate, burst)
		want := &mapLimiter{rate: rate, burst: float64(burst), buckets: map[routing.NodeID]*mapBucket{}}

		var saved routing.RateLimiterState
		var savedRef map[routing.NodeID]mapBucket
		var now time.Duration
		refused := 0
		for step := 0; step < 4000; step++ {
			switch k := r.Intn(100); {
			case k < 2: // crash
				got.Reset()
				clear(want.buckets)
			case k < 5:
				got.SaveModelState(&saved)
				savedRef = map[routing.NodeID]mapBucket{}
				for id, b := range want.buckets {
					savedRef[id] = *b
				}
			case k < 8 && savedRef != nil:
				got.RestoreModelState(&saved)
				clear(want.buckets)
				for id, b := range savedRef {
					b := b
					want.buckets[id] = &b
				}
			default:
				// Mostly a handful of chatty neighbors, now and then a new one.
				from := routing.NodeID(r.Intn(6))
				if r.Intn(10) == 0 {
					from = routing.NodeID(r.Intn(120))
				}
				if r.Intn(3) > 0 {
					now += time.Duration(r.Intn(int(100 * time.Millisecond)))
				}
				g, w := got.Allow(from, now), want.Allow(from, now)
				if g != w {
					t.Fatalf("seed %d step %d: Allow(%d, %v) = %v, the map limiter says %v", seed, step, from, now, g, w)
				}
				if !g {
					refused++
				}
			}
		}
		if refused == 0 || refused > 3500 {
			t.Errorf("seed %d: %d of ~3700 messages refused, the arrivals do not straddle the rate", seed, refused)
		}
	}
}

// TestRateLimiterSteadyStateAllocs: once a neighbor has been heard from,
// admitting its messages allocates nothing.
func TestRateLimiterSteadyStateAllocs(t *testing.T) {
	l := routing.NewRateLimiter(10, 5)
	l.Allow(49, 0)
	now := time.Duration(0)
	if n := testing.AllocsPerRun(1000, func() {
		now += 30 * time.Millisecond
		l.Allow(routing.NodeID(int(now/time.Millisecond)%50), now)
	}); n != 0 {
		t.Errorf("%v allocs per Allow, want 0", n)
	}
}
