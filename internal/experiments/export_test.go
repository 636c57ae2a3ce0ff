package experiments

import "github.com/manetlab/ldr/internal/scenario"

// Measure is the payload a "metrics" journal record holds for a run.
func Measure(res scenario.Result) any { return measureRun(res) }
