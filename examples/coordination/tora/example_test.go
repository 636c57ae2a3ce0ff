package tora_test

import (
	"fmt"

	"github.com/manetlab/ldr/examples/coordination/tora"
)

// Example shows link reversal re-orienting a ring after a cut: the nodes
// stranded by the break reverse until every height gradient leads to the
// destination again.
func Example() {
	nw := tora.New(6, 0, tora.PartialReversal)
	for i := 0; i < 6; i++ {
		nw.AddLink(i, (i+1)%6)
	}
	nw.Stabilize()
	fmt.Println("routed before break:", nw.RouteExists(1))

	nw.RemoveLink(0, 1)
	rounds := nw.Stabilize()
	fmt.Printf("routed after %d reversal rounds: %v\n", rounds, nw.RouteExists(1))
	// Output:
	// routed before break: true
	// routed after 4 reversal rounds: true
}
