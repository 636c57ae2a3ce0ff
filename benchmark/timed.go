package main

import (
	"fmt"
	"time"

	"github.com/manetlab/ldr/internal/aodv"
	"github.com/manetlab/ldr/internal/core"
	"github.com/manetlab/ldr/internal/dsr"
	"github.com/manetlab/ldr/internal/olsr"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
)

// The timing decorator measures a protocol at the routing.Protocol
// boundary from outside the protocol's package. It must be invisible to the
// run: the node layer, fault injector, auditor and model checker discover
// optional behaviour by type assertion, so each decorator type implements
// exactly the optional interfaces its protocol implements, by embedding
// them (timed_test.go holds the reflection guard).

// stride is the sampling period: every call is counted, every stride-th
// top-level call is timed. Two clock reads per call would cost more than
// many handlers do.
const stride = 8

type callStat struct {
	calls   uint64 // every call, nested or not
	top     uint64 // calls not made from inside another timed call
	sampled uint64
	ns      int64
}

// meanNs is the mean inclusive time of one top-level call.
func (s *callStat) meanNs() float64 {
	if s.sampled == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.sampled)
}

func (s *callStat) totalNs() float64 { return s.meanNs() * float64(s.top) }

// handlerStats accumulates one cell's (or one exploration's) calls. A
// handler can re-enter the protocol synchronously (a full MAC queue fails
// the frame inside SendData), so only the outermost call is timed and the
// inclusive times never overlap.
type handlerStats struct {
	ctl, data, orig, fail callStat
	depth                 int
}

func (h *handlerStats) enter(s *callStat) (time.Time, bool) {
	s.calls++
	h.depth++
	if h.depth > 1 {
		return time.Time{}, false
	}
	s.top++
	if s.top%stride != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (h *handlerStats) leave(s *callStat, start time.Time, timing bool) {
	h.depth--
	if timing {
		s.ns += int64(time.Since(start))
		s.sampled++
	}
}

// estimatedNs scales the sampled time up by the stride; the slices use it
// as a running total.
func (h *handlerStats) estimatedNs() int64 {
	return (h.ctl.ns + h.data.ns + h.orig.ns + h.fail.ns) * stride
}

// totalNs is the handler time of the whole cell: per class, mean sampled
// call time × exact call count.
func (h *handlerStats) totalNs() float64 {
	return h.ctl.totalNs() + h.data.totalNs() + h.orig.totalNs() + h.fail.totalNs()
}

func (h *handlerStats) add(o *handlerStats) {
	for _, p := range [][2]*callStat{{&h.ctl, &o.ctl}, {&h.data, &o.data}, {&h.orig, &o.orig}, {&h.fail, &o.fail}} {
		p[0].calls += p[1].calls
		p[0].top += p[1].top
		p[0].sampled += p[1].sampled
		p[0].ns += p[1].ns
	}
}

// timed is the part every decorator shares: all four protocols implement
// DataFailureHandler, MessageRecycler and Resetter. Start and Stop are
// promoted from the embedded Protocol.
type timed struct {
	routing.Protocol
	routing.MessageRecycler
	routing.Resetter
	failer routing.DataFailureHandler
	h      *handlerStats
}

func (t *timed) HandleControl(from routing.NodeID, msg routing.Message) {
	start, timing := t.h.enter(&t.h.ctl)
	t.Protocol.HandleControl(from, msg)
	t.h.leave(&t.h.ctl, start, timing)
}

func (t *timed) HandleData(from routing.NodeID, pkt *routing.DataPacket) {
	start, timing := t.h.enter(&t.h.data)
	t.Protocol.HandleData(from, pkt)
	t.h.leave(&t.h.data, start, timing)
}

func (t *timed) Originate(pkt *routing.DataPacket) {
	start, timing := t.h.enter(&t.h.orig)
	t.Protocol.Originate(pkt)
	t.h.leave(&t.h.orig, start, timing)
}

func (t *timed) DataFailed(next routing.NodeID, pkt *routing.DataPacket) {
	start, timing := t.h.enter(&t.h.fail)
	t.failer.DataFailed(next, pkt)
	t.h.leave(&t.h.fail, start, timing)
}

type timedLDR struct {
	timed
	routing.TableSnapshotter
	routing.TableAppender
	routing.VolatileResetter
	routing.ModelStater
	routing.HeldDataWalker
	scenario.SeqnoReporter
}

type timedAODV struct {
	timed
	routing.TableSnapshotter
	routing.TableAppender
	routing.ModelStater
	routing.HeldDataWalker
	scenario.SeqnoReporter
}

type timedDSR struct {
	timed
	routing.HeldDataWalker
}

type timedOLSR struct {
	timed
	routing.TableSnapshotter
	routing.TableAppender
	routing.HeldControlWalker
}

// common is what the shared part needs from a protocol.
type common interface {
	routing.Protocol
	routing.MessageRecycler
	routing.Resetter
	routing.DataFailureHandler
}

// wrap returns p's timing decorator, accumulating into h.
func wrap(p routing.Protocol, h *handlerStats) (routing.Protocol, error) {
	c, ok := p.(common)
	if !ok {
		return nil, fmt.Errorf("benchmark: no timing decorator for protocol %T", p)
	}
	base := timed{Protocol: c, MessageRecycler: c, Resetter: c, failer: c, h: h}
	switch q := p.(type) {
	case *core.LDR:
		return &timedLDR{base, q, q, q, q, q, q}, nil
	case *aodv.AODV:
		return &timedAODV{base, q, q, q, q, q}, nil
	case *dsr.DSR:
		return &timedDSR{base, q}, nil
	case *olsr.OLSR:
		return &timedOLSR{base, q, q, q}, nil
	}
	return nil, fmt.Errorf("benchmark: no timing decorator for protocol %T", p)
}

// layerOf names the internal/ package that implements a protocol; the
// per-protocol metrics carry it as their prefix.
func layerOf(p scenario.ProtocolName) string {
	if p == scenario.LDR {
		return "core"
	}
	return string(p)
}
