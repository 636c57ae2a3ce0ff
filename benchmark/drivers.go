package main

import (
	"fmt"
	"os"
	"time"

	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/loopcheck"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/resilience"
	"github.com/manetlab/ldr/internal/rng"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sim"
)

// The D metrics: after the traced pass, each driver calls one layer's
// public functions a fixed number of times against the workload's own
// shape (node count, terrain, mobility model, queue depth, end-of-run
// tables) and reports the mean host time of one operation. They give the
// unit costs the est_share estimates multiply the run's counters by.

// unitCosts holds every driver result in nanoseconds per operation; a zero
// means the workload bypasses the layer and the driver did not run.
type unitCosts struct {
	schedFire, cancel                   float64
	transmit, receiversPerTx, neighbors float64
	radioNet                            float64 // transmit minus the engine cost of its own events
	unicast, contend8, macNet           float64
	position, notePair                  float64
	audit, checkTables, putSync         float64
}

// perOp times n calls of op and returns the mean in nanoseconds.
func perOp(n int, op func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// timeDriver runs one driver under its span.
func timeDriver(tr *tracer, workload, name string, fn func() float64) float64 {
	t0 := time.Now()
	v := fn()
	tr.span("driver", name, workload, 0, t0, time.Since(t0), map[string]any{"ns_per_op": v})
	return v
}

// scheduleFire is Schedule+Step with depth events already pending, so the
// heap is as deep as the workload's median.
func scheduleFire(depth int) float64 {
	s := deepSim(depth)
	nop := func() {}
	return perOp(500_000, func(int) {
		s.Schedule(time.Microsecond, nop)
		s.Step()
	})
}

func scheduleCancel(depth int) float64 {
	s := deepSim(depth)
	nop := func() {}
	return perOp(500_000, func(int) { s.Schedule(time.Minute, nop).Cancel() })
}

func deepSim(depth int) *sim.Simulator {
	s := sim.New()
	for i := 0; i < depth; i++ {
		s.Schedule(time.Hour+time.Duration(i)*time.Millisecond, func() {})
	}
	return s
}

// radioTransmit puts frames on a medium over a fresh copy of the
// workload's mobility model and drains each one's events. It also reports
// the decodable receivers and the events of one transmission.
func radioTransmit(cfg scenario.Config) (ns, receivers, events float64, err error) {
	nw, _, err := scenario.Build(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	s := sim.New()
	m := radio.New(s, nw.Medium.Model(), nw.Medium.Config())
	var received int
	for i := 0; i < cfg.Nodes; i++ {
		m.Attach(i, func(int, any) { received++ })
	}
	const ops = 20_000
	ns = perOp(ops, func(i int) {
		m.Transmit(i%cfg.Nodes, (512+78)*8, nil)
		s.RunAll()
	})
	return ns, float64(received) / ops, float64(s.EventsFired()) / ops, nil
}

func radioNeighbors(cfg scenario.Config) (float64, error) {
	nw, _, err := scenario.Build(cfg)
	if err != nil {
		return 0, err
	}
	var buf []int
	return perOp(200_000, func(i int) { buf = nw.Medium.NeighborsAppend(i%cfg.Nodes, buf[:0]) }), nil
}

// macRing builds n MACs on a static medium, all within range of each
// other, and returns the simulator, the MACs and the medium.
func macRing(n int) (*sim.Simulator, []*mac.MAC, *radio.Medium) {
	s := sim.New()
	pts := make([]mobility.Point, n)
	for i := range pts {
		pts[i] = mobility.Point{X: float64(i) * 20}
	}
	medium := radio.New(s, mobility.NewStatic(pts), radio.DefaultConfig())
	root := rng.New(7)
	macs := make([]*mac.MAC, n)
	for i := range macs {
		macs[i] = mac.New(i, s, medium, mac.DefaultConfig(), root.Split(fmt.Sprint("mac", i)), func(int, *mac.Frame) {})
	}
	return s, macs, medium
}

// macUnicast is one Send → data → ACK → FrameSent cycle between two nodes.
// It also returns the cycle's radio transmissions and events, which the
// net MAC cost subtracts.
func macUnicast() (ns, txPerOp, eventsPerOp float64) {
	s, macs, medium := macRing(2)
	f := &mac.Frame{}
	const ops = 20_000
	ns = perOp(ops, func(int) {
		*f = mac.Frame{To: 1, Bytes: 512}
		macs[0].Send(f)
		s.RunAll()
	})
	return ns, float64(medium.Transmissions) / ops, float64(s.EventsFired()) / ops
}

// macContend8 has eight senders in range each unicast one frame at the
// same instant; the result is per frame.
func macContend8() float64 {
	s, macs, _ := macRing(9)
	frames := make([]mac.Frame, 8)
	return perOp(2_000, func(int) {
		for j := range frames {
			frames[j] = mac.Frame{To: 8, Bytes: 512}
			macs[j].Send(&frames[j])
		}
		s.RunAll()
	}) / 8
}

// twoNodeTransmit is radioTransmit on the two-node medium macUnicast uses.
func twoNodeTransmit() (ns, events float64) {
	s := sim.New()
	m := radio.New(s, mobility.NewStatic([]mobility.Point{{}, {X: 20}}), radio.DefaultConfig())
	m.Attach(0, func(int, any) {})
	m.Attach(1, func(int, any) {})
	const ops = 50_000
	ns = perOp(ops, func(i int) {
		m.Transmit(i%2, (512+78)*8, nil)
		s.RunAll()
	})
	return ns, float64(s.EventsFired()) / ops
}

func mobilityPosition(cfg scenario.Config) (float64, error) {
	nw, _, err := scenario.Build(cfg)
	if err != nil {
		return 0, err
	}
	model := nw.Medium.Model()
	const ops = 2_000_000
	step := cfg.SimTime / (ops / time.Duration(cfg.Nodes))
	var sink mobility.Point
	ns := perOp(ops, func(i int) {
		sink = model.Position(i%cfg.Nodes, time.Duration(i/cfg.Nodes)*step)
	})
	_ = sink
	return ns, nil
}

func metricsNotePair() float64 {
	col := metrics.NewCollector()
	return perOp(500_000, func(i int) {
		col.NoteInitiated(i%50, uint64(i))
		if col.NoteDelivered(i%50, uint64(i)) {
			col.Latency.Observe(time.Duration(i%1000) * time.Millisecond)
		}
	})
}

func faultAudit(nw *routing.Network) float64 {
	a := fault.NewAuditor(nw, fault.AuditConfig{Until: time.Hour})
	return perOp(2_000, func(int) { a.CheckNow() })
}

// tables snapshots every node's routing table the way the auditor does.
func tables(nw *routing.Network) [][]routing.RouteEntry {
	out := make([][]routing.RouteEntry, len(nw.Nodes))
	for i, n := range nw.Nodes {
		if ta, ok := n.Protocol().(routing.TableAppender); ok {
			out[i] = ta.AppendTable(nil)
		}
	}
	return out
}

func loopcheckTables(t [][]routing.RouteEntry) float64 {
	c := loopcheck.NewChecker()
	return perOp(2_000, func(int) { c.CheckTables(t) })
}

// threeNodeTables runs LDR on a three-node line with one flow end to end
// and returns its tables: the snapshot shape the model checker checks.
func threeNodeTables() ([][]routing.RouteEntry, error) {
	cfg := scenario.Config{
		Protocol:  scenario.LDR,
		Nodes:     3,
		SimTime:   5 * time.Second,
		Seed:      1,
		Positions: []mobility.Point{{X: 0}, {X: 200}, {X: 400}},
		Traffic:   []scenario.TrafficEvent{{At: time.Second, Src: 0, Dst: 2}, {At: 2 * time.Second, Src: 2, Dst: 0}},
	}
	nw, _, err := scenario.Build(cfg)
	if err != nil {
		return nil, err
	}
	nw.Start()
	nw.Sim.Run(cfg.SimTime)
	t := tables(nw)
	nw.Stop()
	return t, nil
}

// journalPutSync is Put+Sync of one record the size of a chaos cell's.
func journalPutSync(dir string, payload []byte) (float64, error) {
	jdir, err := os.MkdirTemp(dir, "drv-journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(jdir)
	j, err := resilience.Open(jdir)
	if err != nil {
		return 0, err
	}
	var firstErr error
	ns := perOp(40, func(i int) {
		err := j.Put(fmt.Sprintf("%064x", i), payload)
		if err == nil {
			err = j.Sync()
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return ns, firstErr
}

// runDrivers runs the drivers of the layers the workload loads.
func runDrivers(w workload, sz sizes, un *measured, tp *pass, outDir string, tr *tracer) (*unitCosts, error) {
	u := &unitCosts{}
	if w.kind == explored {
		t, err := threeNodeTables()
		if err != nil {
			return nil, err
		}
		u.checkTables = timeDriver(tr, w.name, "loopcheck.CheckTables", func() float64 { return loopcheckTables(t) })
		return u, nil
	}

	cfg := w.cells(sz)[0]
	var pending []float64
	for _, ct := range tp.traces {
		for _, s := range ct.slices {
			pending = append(pending, float64(s.pending))
		}
	}
	depth := int(quantile(pending, 0.5))
	u.schedFire = timeDriver(tr, w.name, "sim.Schedule+Step", func() float64 { return scheduleFire(depth) })
	u.cancel = timeDriver(tr, w.name, "sim.Schedule+Cancel", func() float64 { return scheduleCancel(depth) })
	shallow := scheduleFire(0)

	var err error
	var txEvents float64
	u.transmit = timeDriver(tr, w.name, "radio.Transmit", func() float64 {
		var ns float64
		ns, u.receiversPerTx, txEvents, err = radioTransmit(cfg)
		return ns
	})
	if err != nil {
		return nil, err
	}
	u.radioNet = max(0, u.transmit-txEvents*shallow)
	u.neighbors = timeDriver(tr, w.name, "radio.Neighbors", func() float64 {
		var ns float64
		ns, err = radioNeighbors(cfg)
		return ns
	})
	if err != nil {
		return nil, err
	}

	var cycleTx, cycleEvents float64
	u.unicast = timeDriver(tr, w.name, "mac.Send unicast", func() float64 {
		var ns float64
		ns, cycleTx, cycleEvents = macUnicast()
		return ns
	})
	u.contend8 = timeDriver(tr, w.name, "mac.Send 8 contenders", macContend8)
	pairNs, pairEvents := twoNodeTransmit()
	// What the MAC itself spends on one frame: the cycle, less its radio
	// transmissions (which carry their own events), less the engine cost of
	// the MAC's own events.
	u.macNet = max(0, u.unicast-cycleTx*pairNs-(cycleEvents-cycleTx*pairEvents)*shallow)

	u.position = timeDriver(tr, w.name, "mobility.Position", func() float64 {
		var ns float64
		ns, err = mobilityPosition(cfg)
		return ns
	})
	if err != nil {
		return nil, err
	}
	u.notePair = timeDriver(tr, w.name, "metrics.Note pair", metricsNotePair)

	if w.kind == swept {
		u.audit = timeDriver(tr, w.name, "fault.Auditor.CheckNow", func() float64 { return faultAudit(tp.keep) })
		t := tables(tp.keep)
		u.checkTables = timeDriver(tr, w.name, "loopcheck.CheckTables", func() float64 { return loopcheckTables(t) })
		u.putSync = timeDriver(tr, w.name, "resilience.Put+Sync", func() float64 {
			var ns float64
			ns, err = journalPutSync(outDir, un.journalPayload)
			return ns
		})
		if err != nil {
			return nil, err
		}
	}
	return u, nil
}
