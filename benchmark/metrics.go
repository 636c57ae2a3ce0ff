package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/scenario"
)

// Metric classes, recorded with every value so -compare knows which must
// repeat exactly: E end to end; C counter read after the untraced pass;
// T derived from the untraced pass's host time or allocator totals;
// S span or sample of the traced pass; D driver timing; N not applicable
// (the workload bypasses the layer; the value is 0).
const (
	classE = "E"
	classC = "C"
	classT = "T"
	classS = "S"
	classD = "D"
	classN = "N"
)

// metricValue is one emitted metric. Unit and Better are filled from
// BENCHMARK.json when the set is closed.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Class  string  `json:"class"`
	N      int     `json:"n,omitempty"` // sample count, for percentiles
}

type metricSet map[string]metricValue

func (m metricSet) set(class, name string, v float64) { m[name] = metricValue{Value: v, Class: class} }

func (m metricSet) setN(class, name string, v float64, n int) {
	m[name] = metricValue{Value: v, Class: class, N: n}
}

// quantile is the linear-interpolation quantile of xs (Python's
// statistics "inclusive" method); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simTotals sums the cells' counters, whole-workload and per protocol.
type simTotals struct {
	events                             uint64
	initiated, delivered, dataTx, ctrl uint64
	latencyNs                          float64
	p95Weighted                        float64
	hops                               uint64
	drops                              [metrics.NumDropReasons]uint64
	audits, feas                       uint64
	crashes                            int
	rec                                cellRecord // summed MAC, radio and fault counters
	proto                              map[string]*protoTotals
}

type protoTotals struct {
	wallS, seqnoSum        float64
	ctrl, delivered, loops uint64
	seqnoCount             uint64
}

func totalsOf(p *pass, opS []float64) *simTotals {
	t := &simTotals{proto: map[string]*protoTotals{}}
	for i, r := range p.recs {
		c := r.Collector
		if c == nil {
			continue
		}
		layer := layerOf(p.cfgs[i].Protocol)
		pt := t.proto[layer]
		if pt == nil {
			pt = &protoTotals{}
			t.proto[layer] = pt
		}
		t.events += r.Events
		t.initiated += c.DataInitiated
		t.delivered += c.DataDelivered
		t.dataTx += c.DataTransmitted
		t.ctrl += c.TotalControlTransmitted()
		t.latencyNs += float64(c.TotalLatency)
		t.p95Weighted += float64(c.Latency.Percentile(95)) * float64(c.DataDelivered)
		t.hops += c.HopsSum
		for reason := range t.drops {
			t.drops[reason] += c.DroppedBy(metrics.DropReason(reason))
		}
		t.audits += c.AuditSnapshots
		t.feas += c.FeasibilityRejections
		t.crashes += r.Faults.Crashes
		addMAC(&t.rec.MAC, r.MAC)
		t.rec.RadioTx += r.RadioTx
		t.rec.RadioBad += r.RadioBad
		t.rec.RadioFaults.Dropped += r.RadioFaults.Dropped
		t.rec.RadioFaults.Duplicated += r.RadioFaults.Duplicated
		t.rec.RadioFaults.Delayed += r.RadioFaults.Delayed
		pt.wallS += opS[i]
		pt.ctrl += c.TotalControlTransmitted()
		pt.delivered += c.DataDelivered
		pt.loops += c.LoopViolations
		pt.seqnoSum += c.SeqnoSum
		pt.seqnoCount += c.SeqnoCount
	}
	return t
}

// endToEnd emits the eight end-to-end metrics from the untraced pass.
func endToEnd(m metricSet, w workload, un *measured, peakRSSMB float64) {
	p, opS := un.pass, un.opS()
	m.set(classE, "setup_s", un.setupS)
	m.set(classE, "wall_s", un.wallS())
	m.setN(classE, "cell_s_p50", quantile(opS, 0.5), len(opS))
	m.setN(classE, "cell_s_p75", quantile(opS, 0.75), len(opS))
	m.set(classE, "peak_rss_mb", peakRSSMB)
	m.set(classE, "alloc_mb", float64(p.mem.allocBytes)/1e6)
	if w.kind == explored {
		// The checker's analogues: the share of explored states that kept
		// the invariant, and the successor constructions spent per distinct
		// state (what partial-order reduction would lower).
		var states, transitions, bad float64
		for _, r := range p.mc {
			states += float64(r.States)
			transitions += float64(r.Transitions)
			if r.Violation != nil {
				bad++
			}
		}
		m.set(classE, "delivery_pct", 100*ratio(states-bad, states))
		m.set(classE, "ctrl_per_delivered", ratio(transitions, states))
		return
	}
	t := totalsOf(p, opS)
	m.set(classE, "delivery_pct", 100*ratio(float64(t.delivered), float64(t.initiated)))
	m.set(classE, "ctrl_per_delivered", ratio(float64(t.ctrl), float64(t.delivered)))
}

// counters emits the C and T per-layer metrics from the untraced pass.
func counters(m metricSet, w workload, un *measured) {
	p, busy, wallS := un.pass, un.busyS(), un.wallS()
	m.set(classT, "runpool.gc_cycles", float64(p.mem.gcCycles))
	m.set(classT, "runpool.gc_pause_ms", float64(p.mem.pauseNs)/1e6)
	m.set(classC, "scenario.digest", p.digest.number())

	if w.kind == explored {
		var states, transitions, depth float64
		for _, r := range p.mc {
			states += float64(r.States)
			transitions += float64(r.Transitions)
			depth = max(depth, float64(r.Depth))
		}
		m.set(classC, "modelcheck.states", states)
		m.set(classC, "modelcheck.transitions", transitions)
		m.set(classC, "modelcheck.depth", depth)
		m.set(classT, "modelcheck.states_per_s", ratio(states, wallS))
		m.set(classT, "modelcheck.trans_per_s", ratio(transitions, wallS))
		m.set(classT, "modelcheck.bytes_per_state", ratio(float64(p.mem.allocBytes), states))
		m.set(classT, "modelcheck.allocs_per_state", ratio(float64(p.mem.mallocs), states))
		m.set(classT, "core.cell_wall_s", wallS)
		return
	}

	t := totalsOf(p, un.opS())
	events := float64(t.events)
	m.set(classC, "sim.events", events)
	m.set(classT, "sim.ns_per_event", ratio(busy*1e9, events))
	m.set(classT, "runpool.allocs_per_kevent", 1000*ratio(float64(p.mem.mallocs), events))

	tx := float64(t.rec.RadioTx)
	m.set(classC, "radio.transmissions", tx)
	m.set(classC, "radio.corrupted", float64(t.rec.RadioBad))
	m.set(classC, "radio.corrupt_per_tx", ratio(float64(t.rec.RadioBad), tx))
	m.set(classC, "radio.events_per_tx", ratio(events, tx))

	ms := t.rec.MAC
	m.set(classC, "mac.sent", float64(ms.Sent))
	m.set(classC, "mac.broadcast", float64(ms.Broadcast))
	m.set(classC, "mac.acked", float64(ms.Acked))
	m.set(classC, "mac.retries", float64(ms.Retries))
	m.set(classC, "mac.failures", float64(ms.Failures))
	m.set(classC, "mac.queue_drops", float64(ms.QueueDrops))
	m.set(classC, "mac.retry_per_sent", ratio(float64(ms.Retries), float64(ms.Sent)))
	m.set(classC, "mac.fail_per_unicast", ratio(float64(ms.Failures), float64(ms.Acked+ms.Failures)))

	m.set(classC, "routing.data_tx", float64(t.dataTx))
	m.set(classC, "routing.ctrl_tx", float64(t.ctrl))
	m.set(classC, "routing.drop_no_route", float64(t.drops[metrics.DropNoRoute]))
	m.set(classC, "routing.drop_link_break", float64(t.drops[metrics.DropLinkBreak]))
	m.set(classC, "routing.drop_queue", float64(t.drops[metrics.DropQueueOverflow]))
	m.set(classC, "traffic.initiated", float64(t.initiated))

	for layer, pt := range t.proto {
		m.set(classT, layer+".cell_wall_s", pt.wallS)
		m.set(classC, layer+".ctrl_tx", float64(pt.ctrl))
		m.set(classC, layer+".ctrl_per_delivered", ratio(float64(pt.ctrl), float64(pt.delivered)))
		if layer == "core" || layer == "aodv" {
			m.set(classC, layer+".mean_seqno", ratio(pt.seqnoSum, float64(pt.seqnoCount)))
		}
	}
	if _, ok := t.proto["core"]; ok {
		m.set(classC, "core.feas_rejections", float64(t.feas))
	}

	m.set(classC, "scenario.latency_ms_mean", ratio(t.latencyNs/1e6, float64(t.delivered)))
	m.set(classC, "scenario.latency_ms_p95", ratio(t.p95Weighted/1e6, float64(t.delivered)))
	m.set(classC, "scenario.mean_hops", ratio(float64(t.hops), float64(t.delivered)))
	if w.name == "paper50" {
		// Fig. 2: LDR delivers at least 98.5 % at 10 flows; the difference
		// is the model's stated error against the paper.
		c := p.recs[0].Collector
		m.set(classC, "scenario.ldr_delivery_vs_paper_pp", 100*c.DeliveryRatio()-98.5)
	}

	if w.kind == swept {
		m.set(classC, "fault.audit_snapshots", float64(t.audits))
		m.set(classC, "fault.crashes", float64(t.crashes))
		m.set(classC, "fault.radio_dropped", float64(t.rec.RadioFaults.Dropped))
		m.set(classC, "fault.radio_duplicated", float64(t.rec.RadioFaults.Duplicated))
		m.set(classC, "fault.radio_delayed", float64(t.rec.RadioFaults.Delayed))
		m.set(classC, "fault.loop_violations.ldr", float64(t.proto["core"].loops))
		m.set(classC, "fault.loop_violations.aodv", float64(t.proto["aodv"].loops))
		m.set(classC, "sweep.cells", float64(len(p.cfgs)))
		m.set(classC, "sweep.retried", float64(p.retried))
		m.set(classC, "sweep.failed", float64(p.sweepFailed))
		m.set(classT, "sweep.cells_per_s", ratio(float64(len(p.cfgs)), wallS))
		m.set(classC, "resilience.journal_records", float64(p.journalRecs))
		m.set(classC, "resilience.journal_bytes", float64(p.journalBytes))
	}
}

// shares is the attribution of the untraced pass's busy time (as the clock
// read it: the drivers' unit costs are raw too): one est share per layer with a driver, one handler share per protocol
// weighted by its part of the busy time, and what is left. The estimates
// overlap where one layer calls another inside a timed call, so what is
// left can be negative; it is printed as it comes out.
type shares struct {
	names  []string
	values []float64
}

func (s *shares) add(name string, v float64) {
	s.names = append(s.names, name)
	s.values = append(s.values, v)
}

func (s *shares) sum() float64 {
	var t float64
	for _, v := range s.values {
		t += v
	}
	return t
}

// traced emits the S and D per-layer metrics: samples and handler times
// from the traced pass, the drivers' unit costs, and the shares those give
// when multiplied by the untraced pass's counters.
func traced(m metricSet, w workload, un *measured, tp *pass, u *unitCosts) *shares {
	busyNs := sum(un.rawOpS()) * 1e9
	tpOpS := tp.rawOpS()
	sh := &shares{}
	m.set(classS, "scenario.trace_overhead_pct", 100*(ratio(tp.wallS(), un.wallS())-1))
	if w.kind != serial {
		m.set(classD, "loopcheck.drv_check_tables_ns", u.checkTables)
	}

	if w.kind == explored {
		h := tp.mcHandlers
		handlerMetrics(m, "core", h)
		share := ratio(h.totalNs(), sum(tpOpS)*1e9)
		m.set(classS, "core.handler_share", share)
		sh.add("core.handler_share", share)
		m.set(classS, "modelcheck.frontier_max", float64(tp.frontierMax))
		sliceMetrics(m, tp)
		m.set(classS, "scenario.unattributed_share", 1-sh.sum())
		return sh
	}

	t := totalsOf(un.pass, un.opS())
	var pending, queueMean []float64
	var queueMax, buildNs float64
	perProto := map[string]*handlerStats{}
	tracedBusy := map[string]float64{}
	profileS := map[string][]float64{}
	for i, ct := range tp.traces {
		if ct == nil {
			continue
		}
		nodes := float64(tp.cfgs[i].Nodes)
		for _, s := range ct.slices {
			pending = append(pending, float64(s.pending))
			queueMean = append(queueMean, float64(s.queueSum)/nodes)
			queueMax = max(queueMax, float64(s.queueMax))
		}
		buildNs += float64(ct.buildNs)
		layer := layerOf(tp.cfgs[i].Protocol)
		if perProto[layer] == nil {
			perProto[layer] = &handlerStats{}
		}
		perProto[layer].add(ct.h)
		tracedBusy[layer] += tpOpS[i]
		if prof := profileOf(tp.cfgs[i]); prof != "" {
			profileS[prof] = append(profileS[prof], tpOpS[i])
		}
	}
	m.setN(classS, "sim.pending_p50", quantile(pending, 0.5), len(pending))
	m.setN(classS, "sim.pending_max", quantile(pending, 1), len(pending))
	m.setN(classS, "mac.queue_len_mean", mean(queueMean), len(queueMean))
	m.set(classS, "mac.queue_len_max", queueMax)
	m.set(classS, "scenario.build_ms_per_cell", ratio(buildNs/1e6, float64(len(tp.traces))))
	sliceMetrics(m, tp)

	m.set(classD, "sim.drv_schedule_fire_ns", u.schedFire)
	m.set(classD, "sim.drv_cancel_ns", u.cancel)
	m.set(classD, "radio.drv_transmit_ns", u.transmit)
	m.set(classD, "radio.drv_receivers_per_tx", u.receiversPerTx)
	m.set(classD, "radio.drv_neighbors_ns", u.neighbors)
	m.set(classD, "mac.drv_unicast_ns", u.unicast)
	m.set(classD, "mac.drv_contend8_ns", u.contend8)
	m.set(classD, "mobility.drv_position_ns", u.position)
	m.set(classD, "metrics.drv_note_pair_ns", u.notePair)

	est := func(name string, count uint64, unitNs float64) {
		v := ratio(float64(count)*unitNs, busyNs)
		m.set(classD, name, v)
		sh.add(name, v)
	}
	est("sim.est_share", t.events, u.schedFire)
	est("radio.est_share", t.rec.RadioTx, u.radioNet)
	est("mac.est_share", t.rec.MAC.Sent, u.macNet)
	if w.kind == swept {
		m.set(classD, "fault.drv_audit_ns", u.audit)
		m.set(classD, "resilience.drv_put_sync_ns", u.putSync)
		est("fault.audit_share_est", t.audits, u.audit)
		est("resilience.journal_share_est", uint64(un.journalRecs), u.putSync)
		for prof, s := range profileS {
			m.setN(classS, "fault.cell_s."+prof, mean(s), len(s))
		}
		m.set(classS, "sweep.worker_util", ratio(sum(tpOpS), float64(tp.workers)*tp.rawWallS()))
	}

	layers := make([]string, 0, len(perProto))
	for layer := range perProto {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	for _, layer := range layers {
		h := perProto[layer]
		handlerMetrics(m, layer, h)
		own := ratio(h.totalNs(), tracedBusy[layer]*1e9)
		m.set(classS, layer+".handler_share", own)
		// Weighted by the protocol's part of the busy time, so the shares of
		// one workload add up.
		sh.add(layer+".handler_share", own*ratio(tracedBusy[layer], sum(tpOpS)))
	}
	m.set(classS, "scenario.unattributed_share", 1-sh.sum())
	return sh
}

// sliceMetrics reports the host time of the traced pass's slices.
func sliceMetrics(m metricSet, tp *pass) {
	var ms []float64
	for _, op := range tp.slices {
		for _, s := range op {
			ms = append(ms, s*1e3)
		}
	}
	m.setN(classS, "scenario.slice_ms_p50", quantile(ms, 0.5), len(ms))
	m.setN(classS, "scenario.slice_ms_max", quantile(ms, 1), len(ms))
}

func handlerMetrics(m metricSet, layer string, h *handlerStats) {
	m.set(classS, layer+".handle_ctl_calls", float64(h.ctl.calls))
	m.setN(classS, layer+".handle_ctl_ns", h.ctl.meanNs(), int(h.ctl.sampled))
	m.set(classS, layer+".handle_data_calls", float64(h.data.calls))
	m.setN(classS, layer+".handle_data_ns", h.data.meanNs(), int(h.data.sampled))
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// bypassed lists the layers (metric-name prefixes) a workload does not
// load; their metrics are emitted as 0, class N. Anything else missing
// when the set is closed is a harness bug.
func bypassed(w workload, sz sizes) map[string]bool {
	out := map[string]bool{}
	switch w.kind {
	case explored:
		for _, l := range []string{"sim", "radio", "mac", "mobility", "routing", "aodv", "dsr", "olsr", "metrics",
			"traffic", "fault", "sweep", "resilience", "core.ctrl_tx", "core.ctrl_per_delivered", "core.feas_rejections",
			"core.mean_seqno", "runpool.allocs_per_kevent", "scenario.latency_ms_mean", "scenario.latency_ms_p95",
			"scenario.mean_hops", "scenario.build_ms_per_cell"} {
			out[l] = true
		}
	case serial:
		out["fault"], out["sweep"], out["resilience"], out["loopcheck"] = true, true, true, true
		fallthrough
	case swept:
		out["modelcheck"] = true
		present := map[string]bool{}
		for _, cfg := range w.cells(sz) {
			present[layerOf(cfg.Protocol)] = true
		}
		for _, p := range scenario.AllProtocols {
			if !present[layerOf(p)] {
				out[layerOf(p)] = true
			}
		}
	}
	if w.name != "paper50" {
		out["scenario.ldr_delivery_vs_paper_pp"] = true
	}
	return out
}

// closeSet checks m against the names BENCHMARK.json lists, fills the
// bypassed ones with 0 and stamps units and directions.
func closeSet(m metricSet, spec *benchSpec, w workload, sz sizes, traced bool) error {
	known := map[string]bool{}
	skip := bypassed(w, sz)
	fill := func(list []metricSpec, required bool) error {
		for _, ms := range list {
			known[ms.Name] = true
			v, ok := m[ms.Name]
			switch {
			case ok:
			case skip[ms.Name] || skip[strings.SplitN(ms.Name, ".", 2)[0]]:
				v = metricValue{Class: classN}
			case required:
				return fmt.Errorf("benchmark: %s did not emit %s", w.name, ms.Name)
			default:
				continue
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				return fmt.Errorf("benchmark: %s emitted %s = %v", w.name, ms.Name, v.Value)
			}
			v.Unit, v.Better = ms.Unit, ms.Better
			m[ms.Name] = v
		}
		return nil
	}
	if err := fill(spec.EndToEnd, true); err != nil {
		return err
	}
	// Without the traced pass the S and D metrics are absent, not zero.
	if err := fill(spec.PerLayer, traced); err != nil {
		return err
	}
	for name := range m {
		if !known[name] {
			return fmt.Errorf("benchmark: %s emitted %s, which BENCHMARK.json does not list", w.name, name)
		}
	}
	return nil
}
