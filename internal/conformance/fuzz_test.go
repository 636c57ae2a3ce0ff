package conformance

import (
	"encoding/json"
	"testing"

	"github.com/manetlab/ldr/internal/adversary"
	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/traffic"
)

// specFromScript reads one byte per scenario axis, in a fixed order:
// protocol, nodes (8–20), flows (1–8), simtime (2–12 s), a 16-bit seed
// (two bytes), fault profile, adversary, mobility, traffic, radio,
// density, pause (0–30 s) and audit cadence (50–199 ms). A missing byte
// reads as 0, and 0 is each axis's minimum or the first entry of its name
// list, which is its default. So the engine's minimiser, which cuts the
// tail and then removes bytes, drops faults and the adversary, resets the
// axes and cuts flows. Its last pass writes printable bytes, '0' first,
// so '0' reads as 0 too.
func specFromScript(script []byte) Spec {
	b := make([]byte, 14)
	copy(b, script)
	for i := range b {
		if b[i] == '0' {
			b[i] = 0
		}
	}
	pick := func(names []string, i byte) string { return names[int(i)%len(names)] }
	return Spec{
		Protocol:   string(scenario.AllProtocols[int(b[0])%len(scenario.AllProtocols)]),
		Nodes:      8 + int(b[1])%13,
		Flows:      1 + int(b[2])%8,
		SimTimeSec: float64(2 + int(b[3])%11),
		Seed:       int64(b[4])<<8 | int64(b[5]),
		Profile:    pick(fault.ProfileNames(), b[6]),
		Adversary:  pick(adversary.ProfileNames(), b[7]),
		Mobility:   pick(scenario.Mobilities(), b[8]),
		Traffic:    pick(scenario.Traffics(), b[9]),
		Radio:      pick(scenario.Radios(), b[10]),
		Density:    pick(scenario.Densities(), b[11]),
		PauseSec:   float64(int(b[12]) % 31),
		AuditMS:    50 + int(b[13])%150,
	}
}

// FuzzScenario runs scenarios drawn from a byte script (specFromScript)
// under the conservation harness and fails on any violation: a broken
// packet ledger, a delivery ratio above one, or, for LDR only, a loop.
// The failure message holds the spec in the committed-seed format, ready
// to move into testdata/. Plain `go test` runs one seed per protocol ×
// fault profile, which between them draw every adversary, mobility and
// traffic pattern, and one per non-default radio and density;
// `make fuzz-smoke` fuzzes for 20 s.
func FuzzScenario(f *testing.F) {
	// Seed i: nodes 8 + i mod 13, 3 flows, 6 s, seed i, and adversary,
	// mobility and traffic i mod their lists.
	i := 0
	for p := range scenario.AllProtocols {
		for fp := range fault.ProfileNames() {
			f.Add([]byte{byte(p), byte(i), 2, 4, 0, byte(i), byte(fp), byte(i), byte(i), byte(i)})
			i++
		}
	}
	for r := 1; r < len(scenario.Radios()); r++ {
		f.Add([]byte{0, 4, 2, 4, 0, 1, 0, 0, 0, 0, byte(r)})
	}
	for d := 1; d < len(scenario.Densities()); d++ {
		f.Add([]byte{0, 4, 2, 4, 0, 1, 0, 0, 0, 0, 0, byte(d)})
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		s := specFromScript(script)
		r, err := CheckSpec(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !violates(s, r) {
			return
		}
		var first any = "none"
		if len(r.Violations) > 0 {
			first = r.Violations[0]
		}
		blob, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s: %d ledger violations (first: %v), delivery ratio %.3f, %d loop violations; as a seed:\n%s",
			s, r.Total, first, r.Collector.DeliveryRatio(), r.Collector.LoopViolations, blob)
	})
}

// TestEmptyScriptIsTheDefaultScenario: the script the minimiser works
// toward reads as the smallest scenario with every axis at its default,
// whether its bytes are missing or '0'. A name list that stops starting
// with its default fails here.
func TestEmptyScriptIsTheDefaultScenario(t *testing.T) {
	want := Spec{Protocol: string(scenario.LDR), Nodes: 8, Flows: 1, SimTimeSec: 2,
		Profile: "none", Adversary: "none", Mobility: scenario.Waypoint, Traffic: string(traffic.CBR),
		Radio: scenario.RadioUniform, Density: scenario.DensityUniform, AuditMS: 50}
	for _, script := range [][]byte{nil, []byte("00000000000000")} {
		if got := specFromScript(script); got != want {
			t.Errorf("script %q reads as %+v, want %+v", script, got, want)
		}
	}
}
