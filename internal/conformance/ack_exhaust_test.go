package conformance

import (
	"path/filepath"
	"testing"

	"github.com/manetlab/ldr/internal/metrics"
)

// TestAckExhaustAccounted: a link cut under traffic leaves the relay's
// unicasts to its next hop unanswered, so they exhaust the MAC's
// ACK-timeout retries. Those packets must terminate as link-break drops —
// if the retry-exhaustion path ever stops reporting DataFailed, this
// seed's drops either vanish (census violation, caught by
// TestRegressionSeeds) or land under the wrong reason (caught here).
func TestAckExhaustAccounted(t *testing.T) {
	s, err := LoadSpec(filepath.Join("testdata", "ack-exhaust.json"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := CheckSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total > 0 {
		t.Fatalf("%s: %d conservation violations: %v", s, r.Total, r.Violations)
	}
	if lb := r.Collector.DroppedBy(metrics.DropLinkBreak); lb == 0 {
		t.Fatalf("%s: expected ACK-retry-exhaustion drops under DropLinkBreak, got 0", s)
	}
}
