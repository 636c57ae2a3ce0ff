package routing

import "time"

// RTTEstimator derives adaptive route lifetimes from observed route
// discovery round trips, the delay-based timeout scheme of the adaptive
// AODV literature: instead of expiring every route after a fixed
// ActiveRouteTimeout, the protocol keeps a sliding window of recent
// per-hop round-trip samples and scales each route's lifetime with its
// hop count and the network's currently observed latency. Fast, stable
// networks get short-lived routes on short paths (cheap to rediscover,
// quickly stale under motion) and proportionally longer-lived routes on
// long paths whose rediscovery floods are expensive.
//
// The estimator is per-node volatile performance state: it never affects
// loop freedom (lifetimes only gate how long an already-feasible route
// is used), so crashes may discard it freely.
type RTTEstimator struct {
	window []float64 // per-hop RTT samples, seconds, ring-ordered
	next   int

	mult     float64
	min, max time.Duration

	// Samples counts every Observe for diagnostics and tests.
	Samples uint64
}

// Default estimator tuning: the window length matches the exemplar's
// delay aggregate; the multiplier maps the default 40 ms per-hop
// traversal estimate to roughly the constant 3 s timeout on a 3-hop
// path, and the clamp keeps degenerate samples from producing instantly
// expiring or effectively permanent routes.
const (
	rttWindow      = 20
	rttMultiplier  = 25
	rttMinLifetime = time.Second
	rttMaxLifetime = 10 * time.Second
)

// NewRTTEstimator builds an estimator with the default tuning.
func NewRTTEstimator() *RTTEstimator {
	return &RTTEstimator{
		window: make([]float64, 0, rttWindow),
		mult:   rttMultiplier,
		min:    rttMinLifetime,
		max:    rttMaxLifetime,
	}
}

// Observe records one discovery round trip over a path of hops hops.
// The per-hop one-way latency is rtt/(2·hops): the request traveled out
// and the reply traveled back over (approximately) the same path.
func (e *RTTEstimator) Observe(rtt time.Duration, hops int) {
	if rtt <= 0 || hops <= 0 {
		return
	}
	perHop := rtt.Seconds() / (2 * float64(hops))
	if len(e.window) < cap(e.window) {
		e.window = append(e.window, perHop)
	} else {
		e.window[e.next] = perHop
		e.next = (e.next + 1) % len(e.window)
	}
	e.Samples++
}

// Lifetime returns the adaptive lifetime for a route of hops hops, or
// fallback before any samples exist.
func (e *RTTEstimator) Lifetime(hops int, fallback time.Duration) time.Duration {
	if e == nil || len(e.window) == 0 {
		return fallback
	}
	var sum float64
	for _, s := range e.window {
		sum += s
	}
	mean := sum / float64(len(e.window))
	if hops < 1 {
		hops = 1
	}
	lt := time.Duration(e.mult * mean * float64(hops) * float64(time.Second))
	if lt < e.min {
		lt = e.min
	}
	if lt > e.max {
		lt = e.max
	}
	return lt
}

// Reset discards all samples (crash/reboot: the estimator is volatile).
func (e *RTTEstimator) Reset() {
	e.window = e.window[:0]
	e.next = 0
	e.Samples = 0
}

// RTTState is an RTTEstimator's sample window and counters, saved.
type RTTState struct {
	window  []float64
	next    int
	samples uint64
}

// SaveModelState copies the samples into s's storage; a nil estimator
// saves as empty.
func (e *RTTEstimator) SaveModelState(s *RTTState) {
	if e == nil {
		*s = RTTState{window: s.window[:0]}
		return
	}
	*s = RTTState{window: append(s.window[:0], e.window...), next: e.next, samples: e.Samples}
}

// RestoreModelState puts back the samples SaveModelState copied out.
func (e *RTTEstimator) RestoreModelState(s *RTTState) {
	if e == nil {
		return
	}
	e.window = append(e.window[:0], s.window...)
	e.next = s.next
	e.Samples = s.samples
}
