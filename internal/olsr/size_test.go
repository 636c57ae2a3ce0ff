package olsr

import (
	"testing"

	"github.com/manetlab/ldr/internal/routing"
)

// TestSizesMatchEncodings pins Size(), which MAC airtime reads, to the
// byte counts of the encoding the layout describes: 4-byte ids, 2-byte
// counts and sequence numbers, 1 link-code byte per HELLO neighbour.
func TestSizesMatchEncodings(t *testing.T) {
	h := Hello{Origin: 1, Neighbors: make([]HelloNeighbor, 4)}
	if want := 1 + 4 + 2 + 4*(4+1); h.Size() != want {
		t.Fatalf("Hello.Size = %d, encoding is %d bytes", h.Size(), want)
	}
	tc := TC{Selectors: make([]routing.NodeID, 3), TTL: 10}
	if want := 1 + 4 + 2 + 2 + 1 + 2 + 3*4; tc.Size() != want {
		t.Fatalf("TC.Size = %d, encoding is %d bytes", tc.Size(), want)
	}
}
