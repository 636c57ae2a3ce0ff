package routing

import "time"

// RateLimiter is a per-neighbor token bucket over virtual time, the
// hardening primitive behind RREQ rate limiting and RERR damping: a
// compromised neighbor flooding control packets exhausts its own bucket
// while every other neighbor's stays full, so the storm is contained to
// one link without throttling honest discovery.
//
// Buckets live in a slice indexed by neighbor id, grown on demand: every
// caller passes the link-layer sender of a received message, a node id
// below the node count.
type RateLimiter struct {
	rate    float64 // tokens replenished per second of virtual time
	burst   float64 // bucket capacity
	buckets []tokenBucket
}

// tokenBucket is one neighbor's bucket. A neighbor never heard from has a
// full bucket last topped up at time zero, which is what topping it up at
// its first message leaves a fresh one holding.
type tokenBucket struct {
	tokens float64
	last   time.Duration
}

// NewRateLimiter returns a limiter granting each source up to burst
// immediate tokens, replenished at rate per second.
func NewRateLimiter(rate float64, burst int) *RateLimiter {
	return &RateLimiter{rate: rate, burst: float64(burst)}
}

// Allow takes one token from the source's bucket, reporting whether one
// was available at virtual time now.
func (r *RateLimiter) Allow(from NodeID, now time.Duration) bool {
	for int(from) >= len(r.buckets) {
		r.buckets = append(r.buckets, tokenBucket{tokens: r.burst})
	}
	b := &r.buckets[from]
	b.tokens = min(b.tokens+(now-b.last).Seconds()*r.rate, r.burst)
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Reset empties the limiter's per-neighbor state (a crash loses it with
// the rest of volatile memory).
func (r *RateLimiter) Reset() {
	r.buckets = r.buckets[:0]
}

// RateLimiterState is a RateLimiter's buckets (see ModelStater for why a
// model checker saves state its state encoding leaves out).
type RateLimiterState []tokenBucket

// SaveModelState copies the per-neighbor buckets into s's storage.
func (r *RateLimiter) SaveModelState(s *RateLimiterState) {
	*s = append((*s)[:0], r.buckets...)
}

// RestoreModelState puts back the buckets SaveModelState copied out.
func (r *RateLimiter) RestoreModelState(s *RateLimiterState) {
	r.buckets = append(r.buckets[:0], *s...)
}
