package ondemand

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/routing"
)

func appendEngaged(out []byte, e *engaged) []byte {
	out = binary.AppendVarint(out, int64(e.lastHop))
	return append(out, boolByte(e.replied), boolByte(e.unicastFwd))
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
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
	nw := routing.NewNetwork(ids, mobility.Line(ids, 1000), mac.DefaultConfig(), 1,
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

// liveEntry is one duplicate-cache entry live at some instant.
type liveEntry struct {
	key     ReqKey
	expires time.Duration
	val     engaged
}

// appendLive appends every entry of c live at now, in (origin, request ID)
// order.
func appendLive(out []liveEntry, c *Seen[engaged], now time.Duration) []liveEntry {
	for o, l := range c.byOrigin {
		for _, e := range l {
			if now < e.expires {
				out = append(out, liveEntry{ReqKey{Origin: routing.NodeID(o), ID: e.id}, e.expires, e.val})
			}
		}
	}
	return out
}

// appendRefLive is appendLive for the map reference.
func appendRefLive(out []liveEntry, c *refSeen[engaged], now time.Duration) []liveEntry {
	n := len(out)
	for k, e := range c.m {
		if now < e.expires {
			out = append(out, liveEntry{k, e.expires, e.val})
		}
	}
	slices.SortFunc(out[n:], func(a, b liveEntry) int { return compareReqKey(a.key, b.key) })
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
	var glive, wlive []liveEntry
	var genc, wenc []byte
	var gheld, wheld []uint64

	// desc says what the step did; it is only called for a failure
	// message, so that a passing step formats nothing.
	var desc func() string
	step := 0
	fail := func(what string, g, w any) {
		t.Helper()
		t.Fatalf("step %d (%s): %s = %v, reference %v", step, desc(), what, g, w)
	}
	for ; len(data) > 0; step++ {
		now := gnw.Sim.Now()
		desc = func() string { return "nothing" }
		switch op := next(); op % 16 {
		case 0, 1, 2, 3:
			key := ReqKey{Origin: id(), ID: uint32(next() % 12)}
			g, w := got.seen.Get(key, now), want.seen.Get(key, now)
			desc = func() string { return fmt.Sprintf("arrival %v", key) }
			if (g == nil) != (w == nil) {
				fail("seen", g != nil, w != nil)
			}
			if g == nil || op%16 == 3 {
				desc = func() string { return fmt.Sprintf("add %v", key) }
				g, w = got.seen.Add(key, now), want.seen.Add(key, now)
				if *g != *w {
					fail("added value", *g, *w)
				}
				hop := id()
				g.lastHop, w.lastHop = hop, hop
				for _, e := range got.seen.byOrigin[key.Origin] {
					if e.expires <= now {
						fail("a dead entry right after the add", e, "none")
					}
				}
				break
			}
			if *g != *w {
				fail("engaged state", *g, *w)
			}
			if next()%2 == 0 {
				g.replied, w.replied = true, true
			} else {
				g.unicastFwd, w.unicastFwd = true, true
			}
		case 4:
			if next()%4 == 0 {
				desc = func() string { return "seen reset" }
				got.seen.Reset()
				want.seen.Reset()
			}
		case 5, 6:
			// One packet, or a burst that may overflow the buffer.
			dst, n := 1+routing.NodeID(next()%(ids-1)), 1
			if op%16 == 6 {
				n += int(next() % MaxQueuedPerDest)
			}
			desc = func() string { return fmt.Sprintf("%d packets to %d", n, dst) }
			for i := 0; i < n; i++ {
				gnw.Nodes[0].OriginateData(dst, 64)
				wnw.Nodes[0].OriginateData(dst, 64)
			}
		case 7:
			dst := id()
			desc = func() string { return fmt.Sprintf("take %d", dst) }
			gq, wq := got.Take(dst), want.Take(dst)
			if !slices.Equal(pktIDs(gq), pktIDs(wq)) {
				fail("taken", pktIDs(gq), pktIDs(wq))
			}
			for _, pkt := range gq {
				gnw.Nodes[0].DropData(pkt, routing.DropNoRoute)
			}
			for _, pkt := range wq {
				wnw.Nodes[0].DropData(pkt, routing.DropNoRoute)
			}
		case 8:
			dst := id()
			desc = func() string { return fmt.Sprintf("drop %d", dst) }
			got.Drop(dst, routing.DropLinkBreak)
			want.Drop(dst, routing.DropLinkBreak)
		case 9:
			dst, ttl := id(), TTLStart
			if next()%2 == 0 {
				ttl = NetDiameter
			}
			desc = func() string { return fmt.Sprintf("solicit %d at TTL %d", dst, ttl) }
			got.Solicit(dst, ttl)
			want.Solicit(dst, ttl)
		case 10:
			dst := id()
			desc = func() string { return fmt.Sprintf("finish %d", dst) }
			got.Finish(dst)
			want.Finish(dst)
		case 11:
			if next()%8 == 0 {
				desc = func() string { return "stop" }
				got.Stop()
				want.Stop()
			}
		case 12:
			if next()%2 == 0 {
				desc = func() string { return "reset" }
				got.Reset()
				want.Reset()
			}
		case 13:
			d := short[next()%byte(len(short))]
			desc = func() string { return fmt.Sprintf("advance %v", d) }
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
			desc = func() string { return fmt.Sprintf("advance to %v", to) }
			advance(to)
		case 15:
			if !haveSave || next()%2 == 0 {
				desc = func() string { return "save" }
				got.SaveDiscoveryState(&gsave)
				want.save(&wsave)
				got.seen.SaveState(&gseen)
				want.seen.save(&wseen)
				haveSave = true
				break
			}
			// Under the model checker no attempt timer is armed; the timers
			// armed since the save are cancelled first on both sides, or
			// the reference, which knows its discoveries by pointer, would
			// take one armed for a replaced discovery as its own.
			desc = func() string { return "restore" }
			for i := range got.active {
				got.active[i].timer.Cancel()
			}
			for _, d := range want.active {
				d.timer.Cancel()
			}
			got.RestoreDiscoveryState(&gsave)
			want.restore(&wsave)
			got.seen.RestoreState(&gseen)
			want.seen.restore(&wseen)
		}

		now = gnw.Sim.Now()
		glive, wlive = appendLive(glive[:0], &got.seen, now), appendRefLive(wlive[:0], &want.seen, now)
		if !slices.Equal(glive, wlive) {
			fail("live cache entries", glive, wlive)
		}
		genc, wenc = got.seen.AppendState(genc[:0], now, appendEngaged), want.seen.appendState(wenc[:0], now, appendEngaged)
		if !bytes.Equal(genc, wenc) {
			fail("cache encoding", genc, wenc)
		}
		genc, wenc = got.AppendDiscoveryState(genc[:0]), want.AppendDiscoveryState(wenc[:0])
		if !bytes.Equal(genc, wenc) {
			fail("discovery encoding", genc, wenc)
		}
		for dst := routing.NodeID(0); dst < ids+1; dst++ {
			if g, w := got.Len(dst), want.Len(dst); g != w {
				fail(fmt.Sprintf("Len(%d)", dst), g, w)
			}
			g, w := got.running(dst), want.active[dst]
			if (g == nil) != (w == nil) || g != nil && (g.ID != w.ID || g.TTL != w.TTL || g.Retries != w.Retries) {
				fail(fmt.Sprintf("discovery for %d", dst), g, w)
			}
		}
		if got.nextID != want.nextID || got.Stopped() != want.stopped {
			fail("(nextID, stopped)", []any{got.nextID, got.Stopped()}, []any{want.nextID, want.stopped})
		}
		gheld, wheld = gheld[:0], wheld[:0]
		got.WalkHeldData(func(p *routing.DataPacket) { gheld = append(gheld, uint64(p.Dst)<<32|p.ID) })
		want.WalkHeldData(func(p *routing.DataPacket) { wheld = append(wheld, uint64(p.Dst)<<32|p.ID) })
		if !slices.Equal(gheld, wheld) {
			fail("held data", gheld, wheld)
		}
		if !slices.Equal(got.sent, want.sent) {
			fail("attempts", got.sent, want.sent)
		}
		if !slices.Equal(*gdrops, *wdrops) {
			fail("drops", *gdrops, *wdrops)
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
