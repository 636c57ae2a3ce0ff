package routing

import "github.com/manetlab/ldr/internal/metrics"

// DropReason re-exports the typed drop-reason enum at the layer protocols
// actually live in. The underlying type stays in internal/metrics (the
// collector indexes its per-reason counters by it and cannot import this
// package), but protocol code names reasons through these aliases so
// there is exactly one spelling of each reason: a new cause is added here
// and in metrics together, never as a per-protocol string.
type DropReason = metrics.DropReason

// The drop reasons shared by all four protocols.
const (
	DropOther         DropReason = metrics.DropOther
	DropNoRoute       DropReason = metrics.DropNoRoute
	DropTTL           DropReason = metrics.DropTTL
	DropQueueOverflow DropReason = metrics.DropQueueOverflow
	DropLinkBreak     DropReason = metrics.DropLinkBreak
	DropMalformed     DropReason = metrics.DropMalformed
	DropNodeDown      DropReason = metrics.DropNodeDown
	DropReset         DropReason = metrics.DropReset
)
