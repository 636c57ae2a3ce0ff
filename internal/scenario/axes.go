package scenario

import (
	"flag"
	"fmt"
	"slices"
	"strings"
)

// Axes are the scenario-diversity axes a command or experiment applies
// to every cell it builds. The zero value is the paper's setup: random
// waypoint. This is the one place they are declared as flags and
// validated.
type Axes struct {
	Mobility string
}

// Bind declares the axis flags on fs; the fields' current values are the
// defaults.
func (a *Axes) Bind(fs *flag.FlagSet) {
	fs.StringVar(&a.Mobility, "mobility", a.Mobility, fmt.Sprintf("mobility model for every cell: %s (default %s)",
		strings.Join(Mobilities(), "|"), Waypoint))
}

// Validate rejects a mobility model it does not know ("" selects the
// default).
func (a Axes) Validate() error {
	if a.Mobility != "" && !slices.Contains(Mobilities(), a.Mobility) {
		return fmt.Errorf("mobility must be one of %v (got %q)", Mobilities(), a.Mobility)
	}
	return nil
}
