package metrics

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestCollectorJSONRoundTrip populates every counter family and asserts
// a marshal/unmarshal cycle preserves all derived metrics and re-encodes
// byte-identically — the property journaled sweep resume depends on.
func TestCollectorJSONRoundTrip(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 40; i++ {
		c.NoteInitiated(i%5, uint64(i))
	}
	for i := 0; i < 25; i++ {
		c.NoteDelivered(i%5, uint64(i))
		c.Latency.Observe(time.Duration(i+1) * 7 * time.Millisecond)
		c.TotalLatency += time.Duration(i+1) * 7 * time.Millisecond
		c.HopsSum += uint64(i%4 + 1)
	}
	for i := 25; i < 33; i++ {
		c.NoteDropped(i%5, uint64(i), DropReason(i%NumDropReasons))
	}
	c.NoteDelivered(0, 0) // duplicate
	c.NoteDropped(1, 1, DropTTL)
	c.DataTransmitted = 301
	for k := RREQ; k <= TC; k++ {
		for i := 0; i < int(k); i++ {
			c.CountControlTransmit(k)
			c.CountControlInitiate(k)
			c.CountControlDrop(k)
		}
	}
	c.RREPUsable = 17
	c.ObserveSeqno(3.25)
	c.ObserveSeqno(11.5)
	c.AuditSnapshots, c.LoopViolations, c.OrderingViolations = 9, 1, 2
	c.FeasibilityRejections, c.RREQSuppressed, c.RERRSuppressed = 4, 5, 6

	blob, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	got := NewCollector()
	if err := json.Unmarshal(blob, got); err != nil {
		t.Fatal(err)
	}

	if got.DeliveryRatio() != c.DeliveryRatio() ||
		got.NetworkLoad() != c.NetworkLoad() ||
		got.RREQLoad() != c.RREQLoad() ||
		got.MeanLatency() != c.MeanLatency() ||
		got.RREPInitPerRREQ() != c.RREPInitPerRREQ() ||
		got.RREPRecvPerRREQ() != c.RREPRecvPerRREQ() ||
		got.MeanHops() != c.MeanHops() ||
		got.MeanSeqno() != c.MeanSeqno() {
		t.Fatal("derived metrics changed across JSON round-trip")
	}
	for k := RREQ; k < ControlKind(NumControlKinds); k++ {
		if got.ControlTransmitted(k) != c.ControlTransmitted(k) ||
			got.ControlInitiated(k) != c.ControlInitiated(k) ||
			got.ControlDropped(k) != c.ControlDropped(k) {
			t.Fatalf("control ledger for %v changed across round-trip", k)
		}
	}
	for r := DropReason(0); r < DropReason(NumDropReasons); r++ {
		if got.DroppedBy(r) != c.DroppedBy(r) {
			t.Fatalf("drop reason %v changed across round-trip", r)
		}
	}
	if got.InFlight() != c.InFlight() {
		t.Fatalf("in-flight gauge: got %d want %d", got.InFlight(), c.InFlight())
	}
	if got.Latency.Count() != c.Latency.Count() ||
		got.Latency.Max() != c.Latency.Max() ||
		got.Latency.Percentile(50) != c.Latency.Percentile(50) ||
		got.Latency.Percentile(99) != c.Latency.Percentile(99) {
		t.Fatal("latency histogram changed across round-trip")
	}
	if got.DuplicateDeliveries != c.DuplicateDeliveries || got.LateDrops != c.LateDrops {
		t.Fatal("dedup counters changed across round-trip")
	}

	// The fates map is deliberately not serialized: a journaled collector
	// reports FateNone, and re-encoding is byte-stable.
	if got.FateOf(0, 0) != FateNone {
		t.Fatal("fates map unexpectedly survived serialization")
	}
	blob2, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("re-encoding a decoded collector changed the bytes")
	}
}

// TestLatencyHistogramRejectsHostileJSON: a journaled histogram whose
// bucket count is not the build's, or whose total is not the sum of its
// counts, fails to decode instead of skewing Percentile; the histograms
// MarshalJSON writes, empty or not, still round-trip.
func TestLatencyHistogramRejectsHostileJSON(t *testing.T) {
	var full LatencyHistogram
	for i := 0; i < 100; i++ {
		full.Observe(time.Duration(i*i) * time.Millisecond)
	}
	for _, h := range []*LatencyHistogram{{}, &full} {
		blob, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		var got LatencyHistogram
		if err := json.Unmarshal(blob, &got); err != nil || got != *h {
			t.Fatalf("%s: round-trip gave %+v, %v", blob, got, err)
		}
	}

	zeros := func(n int) string { return strings.TrimSuffix(strings.Repeat("0,", n), ",") }
	for _, c := range []struct{ name, blob string }{
		{"no counts", `{"total":0,"max":0}`},
		{"null", `null`},
		{"one bucket short", `{"counts":[` + zeros(numLatencyBuckets) + `],"total":0,"max":0}`},
		{"one bucket over", `{"counts":[` + zeros(numLatencyBuckets+2) + `],"total":0,"max":0}`},
		{"total above the counts", `{"counts":[3,` + zeros(numLatencyBuckets) + `],"total":4,"max":1000000}`},
		{"total below the counts", `{"counts":[3,` + zeros(numLatencyBuckets) + `],"total":2,"max":1000000}`},
		{"counts overflow", `{"counts":[18446744073709551615,1,` + zeros(numLatencyBuckets-1) + `],"total":0,"max":0}`},
	} {
		var h LatencyHistogram
		if err := json.Unmarshal([]byte(c.blob), &h); err == nil {
			t.Errorf("%s: %s decoded to %+v, want an error", c.name, c.blob, h)
		}
	}
}
