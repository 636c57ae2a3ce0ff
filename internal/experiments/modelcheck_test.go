package experiments

import (
	"io"
	"strings"
	"testing"

	"github.com/manetlab/ldr/internal/modelcheck"
)

// TestModelCheckFailsOnTruncatedCell: a cell that hit the state cap
// without finding a violation has proved nothing, so the sweep must not
// pass on it; one that found its violation first is a result like any
// other.
func TestModelCheckFailsOnTruncatedCell(t *testing.T) {
	g, err := modelcheck.NamedTopology("line3")
	if err != nil {
		t.Fatal(err)
	}
	cells := []mcCell{{proto: "ldr", graph: g, opts: mcOptions(g.N)}, {proto: "aodv", graph: g, opts: mcOptions(g.N)}}
	clean := &modelcheck.Result{States: 10}
	cut := &modelcheck.Result{States: 10, Truncated: true}
	found := &modelcheck.Result{States: 10, Truncated: true, Violation: &modelcheck.Witness{}}
	for _, tc := range []struct {
		name      string
		ldr, aodv *modelcheck.Result
		wantErr   string
	}{
		{"clean", clean, clean, ""},
		{"ldr cut short", cut, clean, "ldr on " + g.String()},
		{"aodv cut short", clean, cut, "aodv on " + g.String()},
		{"aodv violation before the cap", clean, found, ""},
	} {
		err := renderModelCheck(io.Discard, []string{"ldr", "aodv"}, 1, cells, []*modelcheck.Result{tc.ldr, tc.aodv})
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v, want no error", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), "truncated")):
			t.Errorf("%s: error %v, want one naming the truncated cell %q", tc.name, err, tc.wantErr)
		}
	}
}
