package conformance

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sweep"
)

func replayConfig(seed int64) scenario.Config {
	s := Spec{
		Protocol: "ldr", Nodes: 15, Flows: 3,
		SimTimeSec: 6, Seed: seed, Profile: "mayhem",
	}
	cfg, err := s.Config()
	if err != nil {
		panic(err)
	}
	return cfg
}

// TestLogRoundTrip: encoding then decoding a stream reproduces it
// field-for-field, including negative node IDs (BroadcastID) and drop
// reasons.
func TestLogRoundTrip(t *testing.T) {
	events := []routing.TraceEvent{
		{At: 0, Kind: routing.TraceOriginate, Node: 0, Src: 0, Dst: 7, ID: 1, Next: routing.BroadcastID},
		{At: 1500, Kind: routing.TraceForward, Node: 0, Src: 0, Dst: 7, ID: 1, Next: 3},
		{At: 1500, Kind: routing.TraceForward, Node: 3, Src: 0, Dst: 7, ID: 1, Next: 7},
		{At: 2100, Kind: routing.TraceDeliver, Node: 7, Src: 0, Dst: 7, ID: 1, Next: 7},
		{At: 9 * time.Second, Kind: routing.TraceDrop, Node: 2, Src: 2, Dst: 5, ID: 42,
			Next: routing.BroadcastID, Reason: metrics.DropReset},
	}
	var l Log
	for _, ev := range events {
		l.Trace(ev)
	}
	got, err := l.Events()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
}

// TestCaptureByteIdentical: two runs of one scenario must produce
// byte-identical logs and matching fingerprints.
func TestCaptureByteIdentical(t *testing.T) {
	a, err := Capture(replayConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Capture(replayConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("empty trace log: scenario generated no packets")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("logs not byte-identical: %v", Diff(a, b))
	}
	if d := Diff(a, b); d != nil {
		t.Fatalf("Diff = %v, want nil", d)
	}
}

// TestPoolRecyclingByteIdentical: the pool-recycling correctness
// property. Every run-local pool (sim events, MAC air frames, data
// packets, control messages) recycles objects without zeroing them on
// Put — the next Get's caller is responsible for resetting every field
// it uses. If a recycled object ever carries a stale field into a new
// life (an old timer generation, a leftover Route hop, a Failed flag,
// an unreset TTL), the second run of a scenario sees different pool
// history than the first and its packet trace diverges. Running each
// protocol under the crash-heavy "reboot" profile — node resets are
// the densest recycle path: Stop cancels pooled timers, Reset drops
// pending pooled packets, and restarts re-Get from dirty pools — and
// byte-diffing two captures proves no stale field survived recycling.
func TestPoolRecyclingByteIdentical(t *testing.T) {
	for _, proto := range []string{"ldr", "aodv", "dsr", "olsr"} {
		t.Run(proto, func(t *testing.T) {
			spec := Spec{
				Protocol: proto, Nodes: 12, Flows: 3,
				SimTimeSec: 6, Seed: 23, Profile: "reboot",
			}
			cfg, err := spec.Config()
			if err != nil {
				t.Fatal(err)
			}
			a, err := Capture(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Capture(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Len() == 0 {
				t.Fatal("empty trace log: scenario generated no packets")
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("recycled state leaked between runs: %v", Diff(a, b))
			}
			if d := Diff(a, b); d != nil {
				t.Fatalf("fingerprints diverge: %v", d)
			}
		})
	}
}

// TestCaptureWorkerInvariance: capturing cells under a parallel sweep
// must produce the same per-cell log as a serial sweep — the
// nondeterminism probe the ISSUE calls for (same seed, different
// -workers).
func TestCaptureWorkerInvariance(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	capture := func(workers int) []*Log {
		logs := make([]*Log, len(seeds))
		err := sweep.Each(len(seeds), sweep.Options{Workers: workers}, func(i int) error {
			l, err := Capture(replayConfig(seeds[i]))
			if err != nil {
				return err
			}
			logs[i] = l
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return logs
	}
	serial := capture(1)
	parallel := capture(4)
	for i := range seeds {
		if d := Diff(serial[i], parallel[i]); d != nil {
			t.Fatalf("seed %d diverges across worker counts: %v", seeds[i], d)
		}
	}
}

// TestLossyTraceHasOneAnswer: under delivery faults a seed names one run.
// The fault stream is drawn once per reception, so the order in which a
// transmission visits its receivers decides which frame each draw lands
// on. While the radio found receivers through a spatial hash, that order
// was the buckets' insertion history, and this very cell — 50 nodes,
// seed 3, 60 s, "lossy" — delivered 240 packets with the hash's default
// 100 ms re-bucketing window and 249 with a 2 ms one (first divergence
// at trace event 2776): the result depended on a performance setting.
// Receivers are now visited in ascending node id, a function of the
// scenario alone, and there is no setting left to vary, so the test pins
// the one answer id order yields; only a deliberate change to the
// reception order, the fault draws or LDR itself may move it. Beside the
// fingerprint it pins the hashes of the collector's JSON and of the whole
// trace, so an engine change that only removes events (SimEvents) shows
// that it moved nothing else.
func TestLossyTraceHasOneAnswer(t *testing.T) {
	cfg := scenario.Nodes50(scenario.LDR, 10, 0, 3)
	cfg.SimTime = 60 * time.Second
	plan, err := fault.Profile("lossy", cfg.Nodes, cfg.SimTime)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultPlan = &plan
	log, col, err := capture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(col)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenCell{Fingerprint: log.Fingerprint, Collector: sha256Hex(blob), Trace: sha256Hex(log.Bytes())}
	want := goldenCell{
		Fingerprint: Fingerprint{
			TraceEvents: 7458, SimEvents: 1288175, RNGDraws: 3778993,
			Initiated: 2360, Delivered: 221, Dropped: 1976, Transmitted: 2901,
		},
		Collector: "4d97c4b43c517c7f882a1128045a7244f3314938641c251df495a49961f34210",
		Trace:     "d2aa93362f10c2b1dad514d69a47f7cb6a7d18ae597a35ba0862a264bacb2f4d",
	}
	if got != want {
		t.Errorf("lossy cell diverged from the id-order run:\n got  %+v\n want %+v", got, want)
	}
}

// TestDiffPinpointsFirstDivergence: synthetic logs differing at a known
// position must be diffed to exactly that event index.
func TestDiffPinpointsFirstDivergence(t *testing.T) {
	mk := func(n int, mutate int) *Log {
		var l Log
		for i := 0; i < n; i++ {
			ev := routing.TraceEvent{
				At:   time.Duration(i) * time.Millisecond,
				Kind: routing.TraceForward,
				Node: routing.NodeID(i % 5), Src: 0, Dst: 9,
				ID: uint64(i), Next: routing.NodeID((i + 1) % 5),
			}
			if i == mutate {
				ev.Next = 99 // the divergent hop choice
			}
			l.Trace(ev)
		}
		return &l
	}
	a, b := mk(20, -1), mk(20, 13)
	d := Diff(a, b)
	if d == nil {
		t.Fatal("Diff = nil for diverging logs")
	}
	if d.Index != 13 {
		t.Fatalf("divergence at index %d, want 13", d.Index)
	}
	if d.A == nil || d.B == nil || d.A.Next == d.B.Next {
		t.Fatalf("divergence events not reported: %v", d)
	}

	// A strict-prefix log must report the first missing index.
	short := mk(15, -1)
	d = Diff(a, short)
	if d == nil || d.Index != 15 || d.B != nil || d.A == nil {
		t.Fatalf("prefix divergence = %v, want index 15 with only A set", d)
	}

	if d := Diff(a, mk(20, -1)); d != nil {
		t.Fatalf("identical logs diff non-nil: %v", d)
	}
}
