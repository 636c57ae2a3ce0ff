package routing

import (
	"cmp"
	"time"
)

// RateLimiter is a per-neighbor token bucket over virtual time, the
// hardening primitive behind RREQ rate limiting and RERR damping: a
// compromised neighbor flooding control packets exhausts its own bucket
// while every other neighbor's stays full, so the storm is contained to
// one link without throttling honest discovery.
type RateLimiter struct {
	rate    float64 // tokens replenished per second of virtual time
	burst   float64 // bucket capacity
	buckets map[NodeID]*tokenBucket
}

type tokenBucket struct {
	tokens float64
	last   time.Duration
}

// NewRateLimiter returns a limiter granting each source up to burst
// immediate tokens, replenished at rate per second.
func NewRateLimiter(rate float64, burst int) *RateLimiter {
	return &RateLimiter{
		rate:    rate,
		burst:   float64(burst),
		buckets: make(map[NodeID]*tokenBucket),
	}
}

// Allow takes one token from the source's bucket, reporting whether one
// was available at virtual time now.
func (r *RateLimiter) Allow(from NodeID, now time.Duration) bool {
	b := r.buckets[from]
	if b == nil {
		b = &tokenBucket{tokens: r.burst, last: now}
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

// Reset empties the limiter's per-neighbor state (a crash loses it with
// the rest of volatile memory).
func (r *RateLimiter) Reset() {
	clear(r.buckets)
}

// RateLimiterState is a RateLimiter's buckets, saved in ascending source
// order (see ModelStater for why a model checker saves state its state
// encoding leaves out).
type RateLimiterState []Saved[NodeID, tokenBucket]

// SaveModelState copies the per-neighbor buckets into s's storage.
func (r *RateLimiter) SaveModelState(s *RateLimiterState) {
	*s = SavePtrMap(*s, r.buckets, cmp.Compare[NodeID], nil)
}

// RestoreModelState puts back the buckets SaveModelState copied out.
func (r *RateLimiter) RestoreModelState(s *RateLimiterState) {
	RestorePtrMap(r.buckets, *s, cmp.Compare[NodeID], nil)
}
