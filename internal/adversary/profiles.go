package adversary

import (
	"fmt"
	"time"
)

// ProfileNames lists the built-in adversary profiles in presentation
// order. "none" is a real profile (an empty plan), so attack-free cells
// appear in the same tables as attacked ones.
func ProfileNames() []string {
	return []string{"none", "seqno-forge"}
}

// Profile returns the named built-in plan scaled to a node count and
// run length, mirroring fault.Profile: the same profile is meaningful
// in a 20-second test and a 900-second scenario. "seqno-forge"
// compromises ~10% of the nodes once routes have had a tenth of the run
// to form.
func Profile(name string, nodes int, simTime time.Duration) (Plan, error) {
	switch name {
	case "none":
		return Plan{Name: "none"}, nil
	case "seqno-forge":
		return Plan{Name: "seqno-forge", Count: max(nodes/10, 1), At: simTime / 10}, nil
	default:
		return Plan{}, fmt.Errorf("adversary: unknown profile %q (have %v)", name, ProfileNames())
	}
}
