package scenario

import (
	"errors"
	"flag"
	"fmt"
	"slices"
	"strings"

	"github.com/manetlab/ldr/internal/traffic"
)

// Axes are the scenario-diversity axes a command or experiment applies
// to every cell it builds. The zero value is the paper's setup: random
// waypoint, CBR, the uniform 275 m disk and uniform placement. This is
// the one place the four are declared as flags, validated, and stamped
// onto a Config.
type Axes struct {
	Mobility       string
	TrafficPattern string
	Radio          string
	Density        string
}

// Traffics lists the valid traffic pattern names, like Mobilities.
func Traffics() []string {
	names := make([]string, 0, len(traffic.Patterns()))
	for _, p := range traffic.Patterns() {
		names = append(names, string(p))
	}
	return names
}

// Bind declares the axis flags on fs; the fields' current values are the
// defaults.
func (a *Axes) Bind(fs *flag.FlagSet) {
	choice := func(what string, have []string) string {
		return fmt.Sprintf("%s for every cell: %s (default %s)", what, strings.Join(have, "|"), have[0])
	}
	fs.StringVar(&a.Mobility, "mobility", a.Mobility, choice("mobility model", Mobilities()))
	fs.StringVar(&a.TrafficPattern, "traffic", a.TrafficPattern, choice("traffic pattern", Traffics()))
	fs.StringVar(&a.Radio, "radio", a.Radio, choice("radio profile (per-node transmit-power classes)", Radios()))
	fs.StringVar(&a.Density, "density", a.Density, choice("placement-density profile", Densities()))
}

// Validate rejects a profile name its axis does not know ("" selects
// each axis's default).
func (a Axes) Validate() error {
	check := func(axis, got string, have []string) error {
		if got != "" && !slices.Contains(have, got) {
			return fmt.Errorf("%s must be one of %v (got %q)", axis, have, got)
		}
		return nil
	}
	return errors.Join(
		check("mobility", a.Mobility, Mobilities()),
		check("traffic", a.TrafficPattern, Traffics()),
		check("radio", a.Radio, Radios()),
		check("density", a.Density, Densities()))
}

// Apply stamps the axes onto one cell config.
func (a Axes) Apply(cfg *Config) {
	cfg.Mobility = a.Mobility
	cfg.TrafficPattern = traffic.Pattern(a.TrafficPattern)
	cfg.Radio = a.Radio
	cfg.Density = a.Density
}
