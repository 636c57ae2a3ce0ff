// Package ondemand holds the origin-side machinery LDR, AODV and DSR run
// identically: the bounded buffer of data packets waiting for a route
// (Pending), the table of route discoveries in progress with their retry
// timers and give-up handling (Discoveries), the constants AODV and LDR
// share, and the per-neighbour admission state built from them (Limits);
// and the two relay-side pieces that are the same in all three, the RREQ
// duplicate cache (Seen) and the jittered flood relay (Discoveries.Relay).
// Protocols embed these by value and call them.
//
// What is deliberately not here: route tables, the rules that accept or
// refuse a route (LDR's NDC, AODV's sequence-number rule, DSR's path
// cache), the RREQ/RREP/RERR handlers, message types and message pools.
// Those differ in substance between the protocols, and shared code for
// them would have to branch on its caller.
package ondemand

import (
	"time"

	"github.com/manetlab/ldr/internal/routing"
)

// The protocol constants AODV (draft-10 defaults) and LDR declare with
// the same meaning: the values used in the paper's simulations. DSR uses
// the three that are not about sequence-numbered routes or the ring
// (NetDiameter, RREQCacheLife, BroadcastJitter).
const (
	ActiveRouteTimeout = 3 * time.Second       // route lifetime without use
	NodeTraversalTime  = 40 * time.Millisecond // per-hop latency estimate for RREQ timers
	NetDiameter        = 35                    // maximum network diameter in hops
	TTLStart           = 2                     // expanding-ring initial TTL
	TTLIncrement       = 2                     // expanding-ring step
	TTLThreshold       = 7                     // ring TTL beyond which the flood goes network-wide
	RREQRetries        = 2                     // network-wide retries after the ring fails
	RREQCacheLife      = 6 * time.Second       // how long a seen (origin, request ID) is remembered
	BroadcastJitter    = 10 * time.Millisecond // random delay before relaying a flood
)

// Per-neighbor control hardening (internal/adversary): RREQs and RERRs
// arriving from one neighbor faster than these token-bucket rates are
// discarded on receipt, bounding the reach of a control storm to the
// attacker's own links. The values sit far above any benign per-neighbor
// rate (a neighbor relays each flood once), so honest discovery is
// untouched. Dropping solicitations never threatens loop freedom — a
// lost RREQ just retries — it only bounds work.
const (
	rreqRatePerNeighbor = 20 // sustained RREQs/sec accepted per neighbor
	rreqRateBurst       = 40 // bucket depth for RREQ bursts
	rerrRatePerNeighbor = 10 // sustained RERRs/sec accepted per neighbor
	rerrRateBurst       = 20 // bucket depth for RERR bursts
)

// NextRing advances d along the expanding-ring schedule after an attempt
// timed out: the TTL grows by TTLIncrement until it passes TTLThreshold,
// then the flood goes network-wide and is retried RREQRetries times. It
// reports false when the schedule is exhausted.
func NextRing(d *Discovery) bool {
	if d.TTL >= NetDiameter {
		d.Retries++
		return d.Retries <= RREQRetries
	}
	d.TTL += TTLIncrement
	if d.TTL > TTLThreshold {
		d.TTL = NetDiameter
	}
	return true
}

// RingWait is how long an attempt with d's TTL waits for a reply: a round
// trip across the ring at the per-hop traversal estimate.
func RingWait(d *Discovery) time.Duration {
	return 2 * time.Duration(d.TTL) * NodeTraversalTime
}

// Limits is the per-neighbour admission state: token buckets for received
// RREQs and RERRs, volatile across a crash.
type Limits struct {
	node *routing.Node
	rreq *routing.RateLimiter
	rerr *routing.RateLimiter
}

// NewLimits builds the two limiters.
func NewLimits(node *routing.Node) Limits {
	return Limits{
		node: node,
		rreq: routing.NewRateLimiter(rreqRatePerNeighbor, rreqRateBurst),
		rerr: routing.NewRateLimiter(rerrRatePerNeighbor, rerrRateBurst),
	}
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

// Reset empties the buckets (crash/reboot).
func (l *Limits) Reset() {
	l.rreq.Reset()
	l.rerr.Reset()
}

// LimitsState is a Limits saved (see routing.ModelStater): both sets of
// buckets.
type LimitsState struct {
	rreq, rerr routing.RateLimiterState
}

// SaveLimitsState copies the admission state into s's storage, for the
// embedding protocol's SaveModelState.
func (l *Limits) SaveLimitsState(s *LimitsState) {
	l.rreq.SaveModelState(&s.rreq)
	l.rerr.SaveModelState(&s.rerr)
}

// RestoreLimitsState puts back what SaveLimitsState copied out.
func (l *Limits) RestoreLimitsState(s *LimitsState) {
	l.rreq.RestoreModelState(&s.rreq)
	l.rerr.RestoreModelState(&s.rerr)
}
