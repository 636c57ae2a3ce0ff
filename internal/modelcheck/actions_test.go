package modelcheck

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/manetlab/ldr/internal/conformance"
)

// TestEveryActionKindHasARow: every kind has a row in the action table
// with a name, a shape and a step, and an Options field bounds it iff its
// row says it is budgeted; each renders as it always has; and a
// witness whose trace is the one action scripts what the kind's replay
// needs — a crash for a reset, a packet for an origination, nothing for an
// action on a queued item (its outage comes from the world's logs) — or
// refuses the volatile reset the fault injector cannot express. The
// expectations are written out here, not read from the table, and a kind
// without one fails.
func TestEveryActionKindHasARow(t *testing.T) {
	g, err := NamedTopology("line4")
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scenario{Graph: g, Protocol: "ldr", Flows: DefaultFlows(g), Seed: 1}
	at := slotTime(0).Milliseconds()
	cases := map[ActionKind]struct {
		a       Action
		text    string
		traffic []conformance.ScriptTraffic
		faults  []conformance.ScriptFault
		err     string
	}{
		ActDeliver: {a: Action{Kind: ActDeliver, From: 0, To: 1, Index: 2}, text: "deliver 0->1[2]"},
		ActDrop:    {a: Action{Kind: ActDrop, From: 0, To: 1, Index: 2}, text: "drop 0->1[2]"},
		ActDup:     {a: Action{Kind: ActDup, From: 0, To: 1, Index: 2}, text: "dup 0->1[2]"},
		ActReset: {a: Action{Kind: ActReset, Node: 3}, text: "reset 3",
			faults: []conformance.ScriptFault{{Kind: "crash", AtMS: at, DurationMS: crashHold.Milliseconds(), Nodes: []int{3}}}},
		ActResetVolatile: {a: Action{Kind: ActResetVolatile, Node: 3}, text: "reset-volatile 3",
			err: "modelcheck: witness uses a volatile reset, which the fault injector cannot express"},
		ActOriginate: {a: Action{Kind: ActOriginate, Flow: 1}, text: "originate flow 1",
			traffic: []conformance.ScriptTraffic{{AtMS: at, Src: 1, Dst: 3, Bytes: 512}}},
	}
	if n := int(kindEnd - ActDeliver); len(cases) != n {
		t.Errorf("%d kinds have a case here, the table defines %d", len(cases), n)
	}
	limits := Options{MaxDrops: 1, MaxDups: 1, MaxResets: 1, MaxVResets: 1}.remaining(budgets{})
	for k := ActDeliver; k < kindEnd; k++ {
		row := kinds[k]
		if row.name == "" || row.shape == 0 || row.apply == nil {
			t.Errorf("kind %d: its row lacks a name, a shape or a step: %+v", k, row)
		}
		if (limits[k] != 0) != row.budgeted {
			t.Errorf("kind %d (%s): budgeted is %v, and Options.remaining gives it a limit of %d", k, row.name, row.budgeted, limits[k])
		}
		c, ok := cases[k]
		if !ok {
			t.Errorf("kind %d (%s) has no case here", k, row.name)
			continue
		}
		if got := c.a.String(); got != c.text {
			t.Errorf("kind %d renders as %q, want %q", k, got, c.text)
		}
		spec, err := (&Witness{Scenario: sc, Trace: []Action{c.a}}).Spec("")
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("%s: Spec error %v, want %q", c.text, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: Spec: %v", c.text, err)
			continue
		}
		if !reflect.DeepEqual(spec.Script.Traffic, c.traffic) || !reflect.DeepEqual(spec.Script.Faults, c.faults) {
			t.Errorf("%s: scripted traffic %+v and faults %+v, want %+v and %+v",
				c.text, spec.Script.Traffic, spec.Script.Faults, c.traffic, c.faults)
		}
	}
	for _, k := range []ActionKind{0, kindEnd} {
		if got, want := (Action{Kind: k}).String(), fmt.Sprintf("action(%d)", k); got != want {
			t.Errorf("kind %d renders as %q, want %q", k, got, want)
		}
	}
}
