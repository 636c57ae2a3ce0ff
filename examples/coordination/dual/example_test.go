package dual_test

import (
	"fmt"
	"time"

	"github.com/manetlab/ldr/examples/coordination/dual"
	"github.com/manetlab/ldr/internal/sim"
)

// Example shows DUAL's two repair modes on a five-node ring: a distance
// improvement is a free local decision; losing the only feasible
// successor forces a diffusing computation (queries).
func Example() {
	s := sim.New()
	nw := dual.NewNetwork(s, 5, 0, time.Millisecond)
	for i := 0; i < 5; i++ {
		nw.AddLink(i, (i+1)%5, 1)
	}
	s.RunAll()
	fmt.Printf("converged: node 2 at distance %d, %d queries so far\n",
		nw.Dist(2), nw.Messages["query"])

	nw.RemoveLink(0, 1) // node 1 loses its only feasible successor
	s.RunAll()
	fmt.Printf("after break: node 1 at distance %d, queries used: %v\n",
		nw.Dist(1), nw.Messages["query"] > 0)
	// Output:
	// converged: node 2 at distance 2, 0 queries so far
	// after break: node 1 at distance 4, queries used: true
}
