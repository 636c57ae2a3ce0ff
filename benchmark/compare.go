package main

import (
	"fmt"
	"io"
	"math"
)

// compareFiles checks result file B against A: every end-to-end metric of
// every workload both hold must not be worse by more than its bound, and
// every counter (class C) and scenario.digest must be identical — the
// simulated outcome of one seed does not depend on the host. It reports
// whether B passed.
func compareFiles(spec *benchSpec, pathA, pathB string, out io.Writer) (bool, error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	if ca, cb := a.Host.CalibSpinMs, b.Host.CalibSpinMs; ca > 0 && math.Abs(cb-ca)/ca > 0.05 {
		fmt.Fprintf(out, "WARNING calib_spin_ms %.1f vs %.1f differ by more than 5 %%: different boxes, times are not comparable\n", ca, cb)
	}
	compared := 0
	for _, name := range sortedKeys(a.Workloads) {
		oa, ob := a.Workloads[name], b.Workloads[name]
		if ob == nil {
			continue
		}
		compared++
		fmt.Fprintf(out, "workload %s\n", name)
		if oa.Seed != ob.Seed || oa.Scale != ob.Scale {
			fmt.Fprintf(out, "  FAIL seed/scale %d/%s vs %d/%s: not the same input\n", oa.Seed, oa.Scale, ob.Seed, ob.Scale)
			ok = false
			continue
		}
		if ob.OpsFailed > 0 {
			fmt.Fprintf(out, "  FAIL ops_failed %d of %d\n", ob.OpsFailed, ob.OpsTotal)
			ok = false
		}
		for _, ms := range spec.EndToEnd {
			va, vb := oa.Metrics[ms.Name].Value, ob.Metrics[ms.Name].Value
			// worse is the relative change in the bad direction.
			worse := ratio(vb-va, math.Abs(va))
			if ms.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > ms.Bound:
				verdict, ok = "FAIL", false
			case worse < -ms.Bound:
				verdict = "BETTER"
			}
			fmt.Fprintf(out, "  %-6s %-20s %14.6g -> %14.6g  %+7.2f %% worse (bound %.0f %%)\n",
				verdict, ms.Name, va, vb, 100*worse, 100*ms.Bound)
		}
		if oa.Digest != ob.Digest {
			fmt.Fprintf(out, "  FAIL   scenario.digest %s != %s\n", oa.Digest, ob.Digest)
			ok = false
		}
		exact := 0
		for _, mname := range sortedKeys(oa.Metrics) {
			va, vb := oa.Metrics[mname], ob.Metrics[mname]
			if va.Class != classC {
				continue
			}
			exact++
			if va.Value != vb.Value {
				fmt.Fprintf(out, "  FAIL   counter %s %v != %v\n", mname, va.Value, vb.Value)
				ok = false
			}
		}
		fmt.Fprintf(out, "  %d counters compared exactly\n", exact)
	}
	if compared == 0 {
		return false, fmt.Errorf("benchmark: %s and %s share no workload", pathA, pathB)
	}
	return ok, nil
}
