// Package ondemand holds the origin-side machinery LDR, AODV and DSR run
// identically: the bounded buffer of data packets waiting for a route
// (Pending), the table of route discoveries in progress with their retry
// timers and give-up handling (Discoveries), the constants AODV and LDR
// share (Config), and the per-neighbour admission and lifetime state
// built from them (Limits). Protocols embed these by value and call them.
//
// What is deliberately not here: route tables, the rules that accept or
// refuse a route (LDR's NDC, AODV's sequence-number rule, DSR's path
// cache), the RREQ/RREP/RERR handlers, wire formats and message pools.
// Those differ in substance between the protocols, and shared code for
// them would have to branch on its caller.
package ondemand

import (
	"time"

	"github.com/manetlab/ldr/internal/routing"
)

// Config carries the protocol constants AODV (draft-10 defaults) and LDR
// declare with the same meaning and the same default values.
type Config struct {
	ActiveRouteTimeout time.Duration // route lifetime without use
	NodeTraversalTime  time.Duration // per-hop latency estimate for RREQ timers
	NetDiameter        int           // maximum network diameter in hops
	TTLStart           int           // expanding-ring initial TTL
	TTLIncrement       int           // expanding-ring step
	TTLThreshold       int           // ring TTL beyond which the flood goes network-wide
	RREQRetries        int           // network-wide retries after the ring fails
	RREQCacheLife      time.Duration // how long a seen (origin, request ID) is remembered
	BroadcastJitter    time.Duration // random delay before relaying a flood

	// Per-neighbor control hardening (internal/adversary): RREQs and
	// RERRs arriving from one neighbor faster than these token-bucket
	// rates are discarded on receipt, bounding the reach of a control
	// storm to the attacker's own links. The defaults sit far above any
	// benign per-neighbor rate (a neighbor relays each flood once), so
	// honest discovery is untouched; zero disables a limiter. Dropping
	// solicitations never threatens loop freedom — a lost RREQ just
	// retries — it only bounds work.
	RREQRatePerNeighbor float64 // sustained RREQs/sec accepted per neighbor
	RREQRateBurst       int     // bucket depth for RREQ bursts
	RERRRatePerNeighbor float64 // sustained RERRs/sec accepted per neighbor
	RERRRateBurst       int     // bucket depth for RERR bursts

	// AdaptiveTimeout derives route lifetimes from observed discovery
	// round-trip times (routing.RTTEstimator) in place of the constant
	// ActiveRouteTimeout, which stays as the pre-sample fallback. Purely
	// a performance knob: lifetimes only bound how long an already
	// accepted route keeps being used, so loop freedom is untouched.
	AdaptiveTimeout bool
}

// DefaultConfig returns the values used in the paper's simulations.
func DefaultConfig() Config {
	return Config{
		ActiveRouteTimeout: 3 * time.Second,
		NodeTraversalTime:  40 * time.Millisecond,
		NetDiameter:        35,
		TTLStart:           2,
		TTLIncrement:       2,
		TTLThreshold:       7,
		RREQRetries:        2,
		RREQCacheLife:      6 * time.Second,
		BroadcastJitter:    10 * time.Millisecond,

		RREQRatePerNeighbor: 20,
		RREQRateBurst:       40,
		RERRRatePerNeighbor: 10,
		RERRRateBurst:       20,
	}
}

// NextRing advances d along the expanding-ring schedule after an attempt
// timed out: the TTL grows by TTLIncrement until it passes TTLThreshold,
// then the flood goes network-wide and is retried RREQRetries times. It
// reports false when the schedule is exhausted.
func (c *Config) NextRing(d *Discovery) bool {
	if d.TTL >= c.NetDiameter {
		d.Retries++
		return d.Retries <= c.RREQRetries
	}
	d.TTL += c.TTLIncrement
	if d.TTL > c.TTLThreshold {
		d.TTL = c.NetDiameter
	}
	return true
}

// RingWait is how long an attempt with d's TTL waits for a reply: a round
// trip across the ring at the per-hop traversal estimate.
func (c *Config) RingWait(d *Discovery) time.Duration {
	return 2 * time.Duration(d.TTL) * c.NodeTraversalTime
}

// Limits is the per-neighbour admission state and the route-lifetime
// source built from a Config: token buckets for received RREQs and RERRs,
// and the RTT estimator when lifetimes are adaptive. All of it is
// volatile across a crash.
type Limits struct {
	node     *routing.Node
	rreq     *routing.RateLimiter
	rerr     *routing.RateLimiter
	rtt      *routing.RTTEstimator // nil unless cfg.AdaptiveTimeout
	fallback time.Duration         // cfg.ActiveRouteTimeout
}

// NewLimits builds the limiters (and estimator, if enabled) cfg asks for.
func NewLimits(node *routing.Node, cfg Config) Limits {
	l := Limits{
		node:     node,
		rreq:     routing.NewRateLimiter(cfg.RREQRatePerNeighbor, cfg.RREQRateBurst),
		rerr:     routing.NewRateLimiter(cfg.RERRRatePerNeighbor, cfg.RERRRateBurst),
		fallback: cfg.ActiveRouteTimeout,
	}
	if cfg.AdaptiveTimeout {
		l.rtt = routing.NewRTTEstimator()
	}
	return l
}

// AllowRREQ reports whether a RREQ from neighbour from is within its rate
// at virtual time now; a refused one is counted as suppressed.
func (l *Limits) AllowRREQ(from routing.NodeID, now time.Duration) bool {
	if l.rreq.Allow(from, now) {
		return true
	}
	l.node.Metrics().RREQSuppressed++
	return false
}

// AllowRERR is AllowRREQ for route errors.
func (l *Limits) AllowRERR(from routing.NodeID, now time.Duration) bool {
	if l.rerr.Allow(from, now) {
		return true
	}
	l.node.Metrics().RERRSuppressed++
	return false
}

// Lifetime returns the route lifetime for a path of hops hops: adaptive
// when enabled and samples exist, the constant otherwise.
func (l *Limits) Lifetime(hops int) time.Duration {
	if l.rtt == nil {
		return l.fallback
	}
	return l.rtt.Lifetime(hops, l.fallback)
}

// ObserveRTT feeds one discovery round trip over hops hops to the
// estimator; without adaptive lifetimes it does nothing.
func (l *Limits) ObserveRTT(rtt time.Duration, hops int) {
	if l.rtt != nil {
		l.rtt.Observe(rtt, hops)
	}
}

// Reset empties the buckets and the sample window (crash/reboot).
func (l *Limits) Reset() {
	l.rreq.Reset()
	l.rerr.Reset()
	if l.rtt != nil {
		l.rtt.Reset()
	}
}

// LimitsState is a Limits saved (see routing.ModelStater): both sets of
// buckets and the RTT window.
type LimitsState struct {
	rreq, rerr routing.RateLimiterState
	rtt        routing.RTTState
}

// SaveLimitsState copies the admission and lifetime state into s's
// storage, for the embedding protocol's SaveModelState.
func (l *Limits) SaveLimitsState(s *LimitsState) {
	l.rreq.SaveModelState(&s.rreq)
	l.rerr.SaveModelState(&s.rerr)
	l.rtt.SaveModelState(&s.rtt)
}

// RestoreLimitsState puts back what SaveLimitsState copied out.
func (l *Limits) RestoreLimitsState(s *LimitsState) {
	l.rreq.RestoreModelState(&s.rreq)
	l.rerr.RestoreModelState(&s.rerr)
	l.rtt.RestoreModelState(&s.rtt)
}
