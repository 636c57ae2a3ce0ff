package modelcheck

// The checker's transitions. Each kind is defined once, by its row of
// kinds: its name, its operand's shape, its budget, its actor, its step
// and its witness step. The engine reads the row, and where an action's
// fields matter it switches on the shape, never on the kind: enabled,
// apply, String, cursor.id and packedAction. A new kind is a constant
// before kindEnd and a row; a budgeted one also gets an Options field, its
// term in Options.remaining and an ldrcheck flag.

import (
	"fmt"

	"github.com/manetlab/ldr/internal/conformance"
	"github.com/manetlab/ldr/internal/routing"
)

// ActionKind enumerates the checker's transition types, in the order
// world.enabled lists them.
type ActionKind uint8

const (
	// ActDeliver hands one pending message on a link to its receiver.
	ActDeliver ActionKind = iota + 1
	// ActDrop discards one pending message (link-layer loss).
	ActDrop
	// ActDup appends a copy of a pending message (link-layer duplication).
	ActDup
	// ActReset crash-reboots a node through its ordinary Resetter —
	// whatever the protocol persists across crashes survives.
	ActReset
	// ActResetVolatile crash-reboots a node wiping even the protocol's
	// stable storage (routing.VolatileResetter).
	ActResetVolatile
	// ActOriginate injects the scenario's next data flow at its source.
	ActOriginate

	kindEnd // one past the last kind
)

func (k ActionKind) valid() bool { return k >= ActDeliver && k < kindEnd }

// Action is one transition of the abstract model. Its kind's shape says
// which of the other fields it reads.
type Action struct {
	Kind     ActionKind
	From, To routing.NodeID // directed link, for an action on a queued item
	Index    int            // position in that link's pending queue
	Node     routing.NodeID // for an action on a node
	Flow     int            // for an action on a flow: index into Scenario.Flows
}

// String renders the action for witnesses and progress output.
func (a Action) String() string {
	if !a.Kind.valid() {
		return fmt.Sprintf("action(%d)", a.Kind)
	}
	row := &kinds[a.Kind]
	switch row.shape {
	case onItem:
		return fmt.Sprintf("%s %d->%d[%d]", row.name, a.From, a.To, a.Index)
	case onNode:
		return fmt.Sprintf("%s %d", row.name, a.Node)
	}
	return fmt.Sprintf("%s flow %d", row.name, a.Flow)
}

// shape is what an action acts on.
type shape uint8

const (
	onItem shape = iota + 1 // a queued item: From, To and Index
	onNode                  // a node: Node
	onFlow                  // the scenario's next flow: Flow
)

// role is whose code an action runs.
type role uint8

const (
	nobody     role = iota
	receiver        // the queued item's receiver
	namedNode       // the node the action names
	flowSource      // the flow's source
)

// of is the node whose code a runs in scenario sc, -1 for none.
func (r role) of(sc *Scenario, a Action) int {
	switch r {
	case receiver:
		return int(a.To)
	case namedNode:
		return int(a.Node)
	case flowSource:
		return int(sc.Flows[a.Flow].Src)
	}
	return -1
}

// kindRow defines one action kind.
type kindRow struct {
	name     string
	shape    shape
	actor    role
	budgeted bool                                                    // it spends a budget (Options.remaining)
	offered  func(*world) bool                                       // nil: every protocol has it
	apply    func(*world, Action)                                    // its step, once apply checked the operand and marked the actor
	witness  func(*Scenario, *conformance.Script, int, Action) error // its replay script at a slot; nil: none
}

// kinds is the action table, indexed by kind.
var kinds = [kindEnd]kindRow{
	ActDeliver:       {name: "deliver", shape: onItem, actor: receiver, apply: applyDeliver},
	ActDrop:          {name: "drop", shape: onItem, budgeted: true, apply: applyDrop},
	ActDup:           {name: "dup", shape: onItem, budgeted: true, apply: applyDup},
	ActReset:         {name: "reset", shape: onNode, actor: namedNode, budgeted: true, apply: applyReset, witness: scriptReset},
	ActResetVolatile: {name: "reset-volatile", shape: onNode, actor: namedNode, budgeted: true, offered: func(w *world) bool { return w.vresetters != nil }, apply: applyResetVolatile, witness: scriptResetVolatile},
	ActOriginate:     {name: "originate", shape: onFlow, actor: flowSource, apply: applyOriginate, witness: scriptOriginate},
}

// budgets counts actions by kind: what a trace has spent, or what a state
// has left of each budgeted kind's limit.
type budgets [kindEnd]int

// after is b with one more action of a's kind spent.
func (b budgets) after(a Action) budgets {
	b[a.Kind]++
	return b
}

// remaining is what the options leave of each budgeted kind's limit after
// spent: the one place a budgeted kind meets its Options field.
func (o Options) remaining(spent budgets) budgets {
	return budgets{
		ActDrop:          o.MaxDrops - spent[ActDrop],
		ActDup:           o.MaxDups - spent[ActDup],
		ActReset:         o.MaxResets - spent[ActReset],
		ActResetVolatile: o.MaxVResets - spent[ActResetVolatile],
	}
}

func applyDeliver(w *world, a Action) {
	li := w.link(a)
	q := w.pending[li]
	m := q[a.Index]
	// The handler's own emissions inherit the delivered message's causal
	// root: under the full simulator, delivery and reaction both happen at
	// the root emission's instant.
	w.curRoot = int(m.root)
	w.pending[li] = append(q[:a.Index], q[a.Index+1:]...)
	w.delLog = append(w.delLog, emission{from: a.From, to: a.To, root: w.curRoot})
	proto := w.nw.Nodes[a.To].Protocol()
	if m.msg != nil {
		proto.HandleControl(a.From, m.msg)
		w.let(m) // only now: the handler reads the message
	} else {
		proto.HandleData(a.From, m.pkt)
	}
}

func applyDrop(w *world, a Action) {
	li := w.link(a)
	q := w.pending[li]
	m := q[a.Index]
	w.dropLog = append(w.dropLog, emission{from: a.From, to: a.To, root: int(m.root), explicit: true})
	w.pending[li] = append(q[:a.Index], q[a.Index+1:]...)
	if m.pkt != nil {
		w.ModelRelease(m.pkt)
	} else {
		w.let(m)
	}
}

func applyDup(w *world, a Action) {
	li := w.link(a)
	q := w.pending[li]
	cp := q[a.Index] // same airing, same causal root, same hash: a radio-level duplicate
	if cp.pkt != nil {
		cp.pkt = w.copyPacket(cp.pkt)
	}
	w.pending[li] = append(q, cp)
	w.hold(cp)
}

func applyReset(w *world, a Action) {
	node := w.nw.Nodes[a.Node]
	node.Crash()
	node.SetDown(false)
	node.Protocol().Start()
}

func applyResetVolatile(w *world, a Action) {
	if w.vresetters == nil {
		panic(fmt.Sprintf("modelcheck: %v on protocol without VolatileResetter", a))
	}
	node := w.nw.Nodes[a.Node]
	node.SetDown(true)
	w.vresetters[a.Node].ResetVolatile()
	node.SetDown(false)
	node.Protocol().Start()
}

func applyOriginate(w *world, a Action) {
	f := w.sc.Flows[a.Flow]
	w.nextFlow++
	w.nw.Nodes[f.Src].OriginateData(f.Dst, originateBytes)
}

// originateBytes is the payload size of model-injected packets; it only
// matters because it is part of the state encoding and of the witness's
// scripted traffic.
const originateBytes = 512

func scriptReset(_ *Scenario, script *conformance.Script, slot int, a Action) error {
	script.Faults = append(script.Faults, conformance.ScriptFault{
		Kind: "crash", AtMS: slotTime(slot).Milliseconds(),
		DurationMS: crashHold.Milliseconds(), Nodes: []int{int(a.Node)},
	})
	return nil
}

func scriptResetVolatile(*Scenario, *conformance.Script, int, Action) error {
	return fmt.Errorf("modelcheck: witness uses a volatile reset, which the fault injector cannot express")
}

func scriptOriginate(sc *Scenario, script *conformance.Script, slot int, a Action) error {
	f := sc.Flows[a.Flow]
	script.Traffic = append(script.Traffic, conformance.ScriptTraffic{
		AtMS: slotTime(slot).Milliseconds(),
		Src:  int(f.Src), Dst: int(f.Dst), Bytes: originateBytes,
	})
	return nil
}
