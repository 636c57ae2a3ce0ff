package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/traffic"
)

// cellRecord is everything simulated that one cell produced: counters the
// layers already export, read after the run. Every field is an integer (or
// the collector's own exact JSON form), so it repeats exactly for one seed
// and round-trips through the sweep journal unchanged.
type cellRecord struct {
	Collector   *metrics.Collector `json:"collector"`
	Events      uint64             `json:"events"`
	Draws       uint64             `json:"draws"`
	MAC         mac.Stats          `json:"mac"`
	RadioTx     uint64             `json:"radio_tx"`
	RadioBad    uint64             `json:"radio_corrupted"`
	RadioFaults radio.FaultStats   `json:"radio_faults"`
	Faults      fault.Stats        `json:"faults"`
	Interrupted bool               `json:"interrupted"`
}

// sliceSample is what the traced pass samples at the end of one simulated
// second.
type sliceSample struct {
	events    uint64
	pending   int
	queueSum  int
	queueMax  int
	handlerNs int64
}

// cellTrace carries what only the traced pass collects for one cell.
type cellTrace struct {
	h       *handlerStats
	slices  []sliceSample
	buildNs int64
	worker  int

	events    uint64 // running totals behind the per-slice deltas
	handlerNs int64
}

// liveCell is a built, not yet started cell.
type liveCell struct {
	cfg  scenario.Config
	nw   *routing.Network
	gen  *traffic.Generator
	inst *scenario.Instruments
	tr   *cellTrace
}

// buildCell constructs the cell and reseeds every node's protocol jitter
// stream from jitter (see workload). With tr set, every node's protocol is
// replaced by its timing decorator before anything starts.
func buildCell(cfg scenario.Config, jitter *rng.Source, tr *cellTrace) (*liveCell, error) {
	t0 := time.Now()
	nw, gen, inst, err := scenario.BuildInstrumented(cfg)
	if err != nil {
		return nil, err
	}
	for _, n := range nw.Nodes {
		n.RNG().Reseed(int64(jitter.Uint64()))
	}
	if tr != nil {
		tr.buildNs = int64(time.Since(t0))
		tr.h = &handlerStats{}
		for _, n := range nw.Nodes {
			p, err := wrap(n.Protocol(), tr.h)
			if err != nil {
				return nil, err
			}
			n.SetProtocol(p)
		}
	}
	return &liveCell{cfg: cfg, nw: nw, gen: gen, inst: inst, tr: tr}, nil
}

// run is the timed region of one cell: start, simulate SimTime plus the
// two-second drain scenario.Run uses, stop. The simulator advances in
// one-simulated-second slices, which fire the same events in the same
// order as one Run call, so that every slice has a host time of its own
// and the reference clock (see calib.go; nil in tests) can tick between
// slices; the traced pass also samples queue depths at each boundary.
func (c *liveCell) run(clock *refClock, ctls ...*scenario.Control) (cellRecord, []float64) {
	for _, ctl := range ctls {
		ctl.Bind(c.nw.Sim)
	}
	nw := c.nw
	prev := time.Now()
	nw.Start()
	c.gen.Start()
	end := c.cfg.SimTime + 2*time.Second
	var slices []float64
	for t := time.Second; ; t = min(t+time.Second, end) {
		nw.Sim.Run(t)
		if t == end {
			for _, n := range nw.Nodes {
				if r, ok := n.Protocol().(scenario.SeqnoReporter); ok {
					r.ReportSeqnos(nw.Collector)
				}
			}
			nw.Stop()
		}
		now := time.Now()
		slices = append(slices, now.Sub(prev).Seconds())
		prev = now
		if c.tr != nil {
			c.tr.sample(nw)
		}
		if t == end || nw.Sim.Interrupted() {
			break
		}
		if clock != nil && clock.tick(false) > 0 {
			prev = time.Now()
		}
	}

	rec := cellRecord{
		Collector:   nw.Collector,
		Events:      nw.Sim.EventsFired(),
		Draws:       nw.Root.Draws() + c.inst.Root.Draws(),
		RadioTx:     nw.Medium.Transmissions,
		RadioBad:    nw.Medium.Corrupted,
		RadioFaults: nw.Medium.FaultStats,
		Interrupted: nw.Sim.Interrupted(),
	}
	for _, n := range nw.Nodes {
		addMAC(&rec.MAC, n.MAC().Stats())
	}
	if c.inst.Injector != nil {
		rec.Faults = c.inst.Injector.Stats
	}
	return rec, slices
}

// sample records the traced pass's view of the slice that just ended.
func (tr *cellTrace) sample(nw *routing.Network) {
	s := sliceSample{
		events:    nw.Sim.EventsFired() - tr.events,
		pending:   nw.Sim.Pending(),
		handlerNs: tr.h.estimatedNs() - tr.handlerNs,
	}
	for _, n := range nw.Nodes {
		q := n.MAC().QueueLen()
		s.queueSum += q
		s.queueMax = max(s.queueMax, q)
	}
	tr.events += s.events
	tr.handlerNs += s.handlerNs
	tr.slices = append(tr.slices, s)
}

func addMAC(sum *mac.Stats, s mac.Stats) {
	sum.Sent += s.Sent
	sum.Acked += s.Acked
	sum.Broadcast += s.Broadcast
	sum.Retries += s.Retries
	sum.Failures += s.Failures
	sum.QueueDrops += s.QueueDrops
	sum.Delivered += s.Delivered
	sum.DupSuppress += s.DupSuppress
	sum.RTSSent += s.RTSSent
	sum.CTSTimeouts += s.CTSTimeouts
}

// failure returns why the cell counts as a failed operation, or "".
func (r cellRecord) failure(cfg scenario.Config) string {
	c := r.Collector
	switch {
	case r.Interrupted:
		return "interrupted"
	case int64(c.DataInitiated) != int64(c.DataDelivered)+int64(c.DataDropped)+c.InFlight():
		return fmt.Sprintf("packet ledger does not balance: initiated %d != delivered %d + dropped %d + in flight %d",
			c.DataInitiated, c.DataDelivered, c.DataDropped, c.InFlight())
	case cfg.Protocol == scenario.LDR && cfg.AuditCadence > 0 && c.LoopViolations+c.OrderingViolations > 0:
		return fmt.Sprintf("ldr violated its invariant: %d loops, %d ordering", c.LoopViolations, c.OrderingViolations)
	}
	return ""
}

// digester folds the per-operation outcomes into scenario.digest.
type digester struct{ h [sha256.Size]byte }

func (d *digester) add(parts ...[]byte) {
	h := sha256.New()
	h.Write(d.h[:])
	for _, p := range parts {
		h.Write(binary.BigEndian.AppendUint64(nil, uint64(len(p))))
		h.Write(p)
	}
	h.Sum(d.h[:0])
}

func (d *digester) addCell(r cellRecord) error {
	blob, err := json.Marshal(r.Collector)
	if err != nil {
		return fmt.Errorf("encoding collector: %w", err)
	}
	d.add(blob, binary.BigEndian.AppendUint64(nil, r.Events), binary.BigEndian.AppendUint64(nil, r.Draws))
	return nil
}

func (d *digester) addInts(vs ...int) {
	var b []byte
	for _, v := range vs {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	d.add(b)
}

func (d *digester) hex() string { return hex.EncodeToString(d.h[:]) }

// number is the digest's leading 52 bits, exact in a float64, for the
// outputs that carry numbers only.
func (d *digester) number() float64 {
	return float64(binary.BigEndian.Uint64(d.h[:8]) >> 12)
}
