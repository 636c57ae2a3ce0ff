package adversary

import (
	"fmt"
	"time"
)

// ProfileNames lists the built-in adversary profiles in presentation
// order. "none" is a real profile (an empty plan), so attack-free cells
// appear in the same tables as attacked ones.
func ProfileNames() []string {
	return []string{"none", "blackhole", "grayhole", "seqno-forge", "replay", "storm", "byzantine"}
}

// Profile returns the named built-in plan scaled to a node count and
// run length, mirroring fault.Profile: the same profile is meaningful
// in a 20-second test and a 900-second scenario. Attack pressure scales
// with the network — each single-behavior profile compromises ~10% of
// the nodes; "byzantine" stacks three behaviors on separate picks.
func Profile(name string, nodes int, simTime time.Duration) (Plan, error) {
	tenth := max(nodes/10, 1)
	warmup := simTime / 10 // let routes form before the attack starts
	switch name {
	case "none":
		return Plan{Name: "none"}, nil

	case "blackhole":
		return Plan{Name: "blackhole", Compromises: []Compromise{{
			Behavior: Blackhole,
			Count:    tenth,
			At:       warmup,
		}}}, nil

	case "grayhole":
		return Plan{Name: "grayhole", Compromises: []Compromise{{
			Behavior: Grayhole,
			Count:    tenth,
			At:       warmup,
		}}}, nil

	case "seqno-forge":
		return Plan{Name: "seqno-forge", Compromises: []Compromise{{
			Behavior: SeqnoInflate,
			Count:    tenth,
			At:       warmup,
		}}}, nil

	case "replay":
		return Plan{Name: "replay", Compromises: []Compromise{{
			Behavior:    StaleReplay,
			Count:       tenth,
			At:          warmup,
			ReplayEvery: max(simTime/60, 250*time.Millisecond),
			ReplayAge:   max(simTime/15, 2*time.Second),
		}}}, nil

	case "storm":
		return Plan{Name: "storm", Compromises: []Compromise{{
			Behavior:   Storm,
			Count:      tenth,
			At:         warmup,
			StormEvery: max(simTime/150, 100*time.Millisecond),
			StormBurst: 8,
		}}}, nil

	case "byzantine":
		// The kitchen sink: dropping, forging, and flooding at once, each
		// on its own victim draw (picks may overlap — a node can both
		// blackhole and forge, like a real compromised device).
		return Plan{Name: "byzantine", Compromises: []Compromise{
			{Behavior: Blackhole, Count: tenth, At: warmup},
			{Behavior: SeqnoInflate, Count: tenth, At: warmup},
			{
				Behavior:   Storm,
				Count:      tenth,
				At:         simTime / 5,
				StormEvery: max(simTime/75, 200*time.Millisecond),
				StormBurst: 4,
			},
		}}, nil

	default:
		return Plan{}, fmt.Errorf("adversary: unknown profile %q (have %v)", name, ProfileNames())
	}
}
