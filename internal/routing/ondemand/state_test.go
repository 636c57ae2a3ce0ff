package ondemand

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/routing"
)

// copyEngaged deep-copies an engaged record, reusing dst's storage.
func copyEngaged(dst, src *engaged) {
	hops := dst.altHops
	*dst = *src
	dst.altHops = append(hops[:0], src.altHops...)
}

func appendEngaged(out []byte, e *engaged) []byte {
	out = binary.AppendVarint(out, int64(e.lastHop))
	out = binary.AppendUvarint(out, uint64(len(e.altHops)))
	for _, h := range e.altHops {
		out = binary.AppendVarint(out, int64(h))
	}
	return fmt.Appendf(out, "%v%v", e.replied, e.unicastFwd)
}

// fzSide and fzRef are node 0 of the two halves of the differential rig:
// the duplicate cache and discovery table under test, and their map
// references. Both buffer what node 0 originates without soliciting (the
// script solicits), record every attempt, and follow the shared ring.
type fzSide struct {
	Discoveries
	seen Seen[engaged]
	sent []string
}

type fzRef struct {
	*refDiscoveries
	seen refSeen[engaged]
	sent []string
}

func (*fzSide) Start()                                          {}
func (*fzSide) HandleControl(routing.NodeID, routing.Message)   {}
func (*fzSide) HandleData(routing.NodeID, *routing.DataPacket)  {}
func (s *fzSide) Originate(pkt *routing.DataPacket)             { s.Push(pkt) }
func (*fzSide) NextAttempt(_ routing.NodeID, d *Discovery) bool { return NextRing(d) }
func (s *fzSide) SendRequest(dst routing.NodeID, d *Discovery) time.Duration {
	s.sent = append(s.sent, fmt.Sprintf("%d:%d@%d", dst, d.ID, d.TTL))
	return RingWait(d)
}

func (*fzRef) Start()                                          {}
func (*fzRef) HandleControl(routing.NodeID, routing.Message)   {}
func (*fzRef) HandleData(routing.NodeID, *routing.DataPacket)  {}
func (r *fzRef) Originate(pkt *routing.DataPacket)             { r.Push(pkt) }
func (*fzRef) NextAttempt(_ routing.NodeID, d *Discovery) bool { return NextRing(d) }
func (r *fzRef) SendRequest(dst routing.NodeID, d *Discovery) time.Duration {
	r.sent = append(r.sent, fmt.Sprintf("%d:%d@%d", dst, d.ID, d.TTL))
	return RingWait(d)
}

// fzRig builds ids isolated nodes with drops traced; node 0 runs mk's
// protocol.
func fzRig(ids int, mk func(*routing.Node) routing.Protocol) (*routing.Network, *drops) {
	nw := routing.NewNetwork(ids, mobility.Line(ids, 1000), radio.DefaultConfig(), mac.DefaultConfig(), 1,
		func(node *routing.Node) routing.Protocol {
			if node.ID() == 0 {
				return mk(node)
			}
			s := &stub{}
			s.Discoveries = NewDiscoveries(node, s)
			return s
		})
	var d drops
	nw.SetTracer(&d)
	return nw, &d
}

// lines renders every entry live at now, in (origin, request ID) order.
func (c *Seen[V]) lines(now time.Duration) []string {
	var out []string
	for o, l := range c.byOrigin {
		for _, e := range l {
			if now < e.expires {
				out = append(out, fmt.Sprintf("%d/%d until %v: %+v", o, e.id, e.expires, e.val))
			}
		}
	}
	return out
}

func (c *refSeen[V]) lines(now time.Duration) []string {
	var keys []ReqKey
	for k, e := range c.m {
		if now < e.expires {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, compareReqKey)
	var out []string
	for _, k := range keys {
		e := c.m[k]
		out = append(out, fmt.Sprintf("%d/%d until %v: %+v", k.Origin, k.ID, e.expires, e.val))
	}
	return out
}

// driveOnDemand interprets data as a script for the duplicate cache and
// the discovery table — arrivals that find or add a computation and
// write its engaged state, adds over a live key, resets; data buffered,
// taken and dropped, discoveries solicited, finished, stopped and reset;
// clock advances short of, exactly at and across entries' expiries and
// attempt timeouts; and saves followed, after any steps, by a restore —
// and plays it to the slices and to the maps, each node 0 of its own
// rig. After every step the two must agree on every live cache entry
// with its expiry and engaged state, on the encodings, on every
// destination's buffer and discovery, on the request-ID counter, on the
// attempts sent and on the drops emitted; and right after an Add the
// origin's list holds no dead entry.
func driveOnDemand(t testing.TB, data []byte) {
	const ids = 6
	var got *fzSide
	var want *fzRef
	gnw, gdrops := fzRig(ids, func(n *routing.Node) routing.Protocol {
		got = &fzSide{}
		got.Discoveries = NewDiscoveries(n, got)
		return got
	})
	wnw, wdrops := fzRig(ids, func(n *routing.Node) routing.Protocol {
		want = &fzRef{}
		want.refDiscoveries = newRefDiscoveries(n, want)
		return want
	})

	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	id := func() routing.NodeID { return routing.NodeID(next() % ids) }
	short := [...]time.Duration{time.Nanosecond, 10 * time.Millisecond, 80 * time.Millisecond, 160 * time.Millisecond,
		500 * time.Millisecond, time.Second, 2 * time.Second, 3 * time.Second}
	advance := func(to time.Duration) {
		gnw.Sim.Run(to)
		wnw.Sim.Run(to)
	}
	var gsave DiscoveryState
	var wsave refDiscoveryState
	var gseen SeenState[engaged]
	var wseen refSeenState[engaged]
	haveSave := false

	for step := 0; len(data) > 0; step++ {
		now := gnw.Sim.Now()
		fail := func(desc, what string, g, w any) {
			t.Helper()
			t.Fatalf("step %d (%s): %s = %v, reference %v", step, desc, what, g, w)
		}
		var desc string
		switch op := next(); op % 16 {
		case 0, 1, 2, 3:
			key := ReqKey{Origin: id(), ID: uint32(next() % 12)}
			g, w := got.seen.Get(key, now), want.seen.Get(key, now)
			desc = fmt.Sprintf("arrival %v", key)
			if (g == nil) != (w == nil) {
				fail(desc, "seen", g != nil, w != nil)
			}
			if g == nil || op%16 == 3 {
				desc = fmt.Sprintf("add %v", key)
				g, w = got.seen.Add(key, now), want.seen.Add(key, now)
				if fmt.Sprint(*g) != fmt.Sprint(*w) {
					fail(desc, "added value", *g, *w)
				}
				hop := id()
				g.lastHop, w.lastHop = hop, hop
				for _, e := range got.seen.byOrigin[key.Origin] {
					if e.expires <= now {
						fail(desc, "a dead entry right after the add", e, "none")
					}
				}
				break
			}
			if fmt.Sprint(*g) != fmt.Sprint(*w) {
				fail(desc, "engaged state", *g, *w)
			}
			switch hop := id(); next() % 3 {
			case 0:
				g.replied, w.replied = true, true
			case 1:
				g.unicastFwd, w.unicastFwd = true, true
			case 2:
				g.altHops, w.altHops = append(g.altHops, hop), append(w.altHops, hop)
			}
		case 4:
			if next()%4 == 0 {
				desc = "seen reset"
				got.seen.Reset()
				want.seen.Reset()
			}
		case 5, 6:
			// One packet, or a burst that may overflow the buffer.
			dst, n := 1+routing.NodeID(next()%(ids-1)), 1
			if op%16 == 6 {
				n += int(next() % MaxQueuedPerDest)
			}
			desc = fmt.Sprintf("%d packets to %d", n, dst)
			for i := 0; i < n; i++ {
				gnw.Nodes[0].OriginateData(dst, 64)
				wnw.Nodes[0].OriginateData(dst, 64)
			}
		case 7:
			dst := id()
			desc = fmt.Sprintf("take %d", dst)
			gq, wq := got.Take(dst), want.Take(dst)
			if fmt.Sprint(pktIDs(gq)) != fmt.Sprint(pktIDs(wq)) {
				fail(desc, "taken", pktIDs(gq), pktIDs(wq))
			}
			for _, pkt := range gq {
				gnw.Nodes[0].DropData(pkt, routing.DropNoRoute)
			}
			for _, pkt := range wq {
				wnw.Nodes[0].DropData(pkt, routing.DropNoRoute)
			}
		case 8:
			dst := id()
			desc = fmt.Sprintf("drop %d", dst)
			got.Drop(dst, routing.DropLinkBreak)
			want.Drop(dst, routing.DropLinkBreak)
		case 9:
			dst, ttl := id(), TTLStart
			if next()%2 == 0 {
				ttl = NetDiameter
			}
			desc = fmt.Sprintf("solicit %d at TTL %d", dst, ttl)
			got.Solicit(dst, ttl)
			want.Solicit(dst, ttl)
		case 10:
			dst := id()
			desc = fmt.Sprintf("finish %d", dst)
			got.Finish(dst)
			want.Finish(dst)
		case 11:
			if next()%8 == 0 {
				desc = "stop"
				got.Stop()
				want.Stop()
			}
		case 12:
			if next()%2 == 0 {
				desc = "reset"
				got.Reset()
				want.Reset()
			}
		case 13:
			d := short[next()%byte(len(short))]
			desc = fmt.Sprintf("advance %v", d)
			advance(now + d)
		case 14:
			// To a live entry's expiry, 1 ns short of it, or a cache life on.
			var exp []time.Duration
			for _, e := range want.seen.m {
				if now < e.expires {
					exp = append(exp, e.expires)
				}
			}
			slices.Sort(exp)
			to := now + RREQCacheLife + time.Duration(next()%2)
			if b := next(); len(exp) > 0 && b%4 != 0 {
				to = exp[int(b/4)%len(exp)] - time.Duration(b%2)
			}
			desc = fmt.Sprintf("advance to %v", to)
			advance(to)
		case 15:
			if !haveSave || next()%2 == 0 {
				desc = "save"
				got.SaveDiscoveryState(&gsave)
				want.save(&wsave)
				got.seen.SaveState(&gseen, copyEngaged)
				want.seen.save(&wseen, copyEngaged)
				haveSave = true
				break
			}
			// Under the model checker no attempt timer is armed; the timers
			// armed since the save are cancelled first on both sides, or
			// the reference, which knows its discoveries by pointer, would
			// take one armed for a replaced discovery as its own.
			desc = "restore"
			for i := range got.active {
				got.active[i].timer.Cancel()
			}
			for _, d := range want.active {
				d.timer.Cancel()
			}
			got.RestoreDiscoveryState(&gsave)
			want.restore(&wsave)
			got.seen.RestoreState(&gseen, copyEngaged)
			want.seen.restore(&wseen, copyEngaged)
		}

		now = gnw.Sim.Now()
		if g, w := got.seen.lines(now), want.seen.lines(now); !slices.Equal(g, w) {
			fail(desc, "live cache entries", g, w)
		}
		if g, w := got.seen.AppendState(nil, now, appendEngaged), want.seen.appendState(nil, now, appendEngaged); string(g) != string(w) {
			fail(desc, "cache encoding", g, w)
		}
		if g, w := got.AppendDiscoveryState(nil), want.AppendDiscoveryState(nil); string(g) != string(w) {
			fail(desc, "discovery encoding", g, w)
		}
		for dst := routing.NodeID(0); dst < ids+1; dst++ {
			if g, w := got.Len(dst), want.Len(dst); g != w {
				fail(desc, fmt.Sprintf("Len(%d)", dst), g, w)
			}
			g, w := got.running(dst), want.active[dst]
			if (g == nil) != (w == nil) || g != nil && (g.ID != w.ID || g.TTL != w.TTL || g.Retries != w.Retries) {
				fail(desc, fmt.Sprintf("discovery for %d", dst), g, w)
			}
		}
		if got.nextID != want.nextID || got.Stopped() != want.stopped {
			fail(desc, "(nextID, stopped)", []any{got.nextID, got.Stopped()}, []any{want.nextID, want.stopped})
		}
		var gh, wh []uint64
		got.WalkHeldData(func(p *routing.DataPacket) { gh = append(gh, uint64(p.Dst)<<32|p.ID) })
		want.WalkHeldData(func(p *routing.DataPacket) { wh = append(wh, uint64(p.Dst)<<32|p.ID) })
		if !slices.Equal(gh, wh) {
			fail(desc, "held data", gh, wh)
		}
		if !slices.Equal(got.sent, want.sent) {
			fail(desc, "attempts", got.sent, want.sent)
		}
		if !slices.Equal(*gdrops, *wdrops) {
			fail(desc, "drops", *gdrops, *wdrops)
		}
	}

	g, _ := json.Marshal(gnw.Collector)
	w, _ := json.Marshal(wnw.Collector)
	if string(g) != string(w) {
		t.Fatalf("collectors differ:\n slices %s\n maps   %s", g, w)
	}
}

func pktIDs(q []*routing.DataPacket) []uint64 {
	var out []uint64
	for _, p := range q {
		out = append(out, p.ID)
	}
	return out
}

func randomScript(seed int64, n int) []byte {
	script := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(script)
	return script
}

// FuzzOnDemandState holds the id-indexed duplicate cache, buffers and
// discovery table to the map implementations they replaced
// (reference_test.go); plain `go test` runs the seeds, `make fuzz-smoke`
// fuzzes for 20 s.
func FuzzOnDemandState(f *testing.F) {
	f.Add([]byte{})
	// Data to 2 and a solicitation for it; the ring times out twice; a save,
	// the discovery finished, a restore; the give-up drops the packet.
	f.Add([]byte{5, 1, 9, 2, 0, 13, 7, 13, 7, 15, 0, 10, 2, 15, 1, 13, 7, 13, 7, 13, 7, 13, 7})
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(randomScript(seed, 3000))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip()
		}
		driveOnDemand(t, script)
	})
}
