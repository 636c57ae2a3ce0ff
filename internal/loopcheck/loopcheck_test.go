package loopcheck_test

import (
	"strings"
	"testing"

	"github.com/manetlab/ldr/internal/loopcheck"
	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/routing"
)

// fakeProto serves a fixed routing table to the checker.
type fakeProto struct {
	table []routing.RouteEntry
}

func (p *fakeProto) Start()                                         {}
func (p *fakeProto) Stop()                                          {}
func (p *fakeProto) HandleControl(routing.NodeID, routing.Message)  {}
func (p *fakeProto) HandleData(routing.NodeID, *routing.DataPacket) {}
func (p *fakeProto) Originate(*routing.DataPacket)                  {}
func (p *fakeProto) SnapshotTable() []routing.RouteEntry            { return p.table }

// network builds n nodes each serving the given table.
func network(tables map[int][]routing.RouteEntry, n int) []*routing.Node {
	nw := routing.NewNetwork(n, mobility.Line(n, 250), mac.DefaultConfig(), 1,
		func(node *routing.Node) routing.Protocol {
			return &fakeProto{table: tables[int(node.ID())]}
		})
	return nw.Nodes
}

func TestCleanChainPasses(t *testing.T) {
	// 0→1→2→3 toward destination 3 with proper (seq, fd) ordering.
	tables := map[int][]routing.RouteEntry{
		0: {{Dst: 3, Next: 1, Metric: 3, SeqNo: 5, FD: 3, Valid: true}},
		1: {{Dst: 3, Next: 2, Metric: 2, SeqNo: 5, FD: 2, Valid: true}},
		2: {{Dst: 3, Next: 3, Metric: 1, SeqNo: 5, FD: 1, Valid: true}},
	}
	if vs := loopcheck.Check(network(tables, 4)); len(vs) != 0 {
		t.Fatalf("clean chain flagged: %v", vs)
	}
}

func TestDetectsTwoNodeLoop(t *testing.T) {
	tables := map[int][]routing.RouteEntry{
		0: {{Dst: 3, Next: 1, Metric: 2, Valid: true}},
		1: {{Dst: 3, Next: 0, Metric: 2, Valid: true}},
	}
	vs := loopcheck.Check(network(tables, 4))
	if len(vs) == 0 {
		t.Fatal("0↔1 loop not detected")
	}
	if len(vs[0].Cycle) == 0 {
		t.Fatalf("violation carries no cycle: %v", vs[0])
	}
}

func TestDetectsLongLoopOffPath(t *testing.T) {
	// 0 → 1 → 2 → 3 → 1: the cycle excludes the entry node 0.
	tables := map[int][]routing.RouteEntry{
		0: {{Dst: 9, Next: 1, Valid: true}},
		1: {{Dst: 9, Next: 2, Valid: true}},
		2: {{Dst: 9, Next: 3, Valid: true}},
		3: {{Dst: 9, Next: 1, Valid: true}},
	}
	vs := loopcheck.Check(network(tables, 10))
	if len(vs) == 0 {
		t.Fatal("1→2→3→1 loop not detected")
	}
}

func TestInvalidRoutesIgnored(t *testing.T) {
	tables := map[int][]routing.RouteEntry{
		0: {{Dst: 3, Next: 1, Valid: false}},
		1: {{Dst: 3, Next: 0, Valid: false}},
	}
	if vs := loopcheck.Check(network(tables, 4)); len(vs) != 0 {
		t.Fatalf("invalid routes produced violations: %v", vs)
	}
}

func TestOrderingViolationSeqno(t *testing.T) {
	// Successor holds an *older* sequence number: breach of Theorem 2.
	tables := map[int][]routing.RouteEntry{
		0: {{Dst: 3, Next: 1, Metric: 3, SeqNo: 6, FD: 3, Valid: true}},
		1: {{Dst: 3, Next: 3, Metric: 1, SeqNo: 5, FD: 1, Valid: true}},
	}
	vs := loopcheck.Check(network(tables, 4))
	if len(vs) == 0 {
		t.Fatal("seqno ordering violation not detected")
	}
	if !strings.Contains(vs[0].Error(), "older seq") {
		t.Fatalf("unexpected violation text: %v", vs[0])
	}
}

func TestOrderingViolationFD(t *testing.T) {
	// Equal seq but the successor's fd is not strictly smaller.
	tables := map[int][]routing.RouteEntry{
		0: {{Dst: 3, Next: 1, Metric: 3, SeqNo: 5, FD: 2, Valid: true}},
		1: {{Dst: 3, Next: 3, Metric: 1, SeqNo: 5, FD: 2, Valid: true}},
	}
	vs := loopcheck.Check(network(tables, 4))
	if len(vs) == 0 {
		t.Fatal("fd ordering violation not detected")
	}
	if !strings.Contains(vs[0].Error(), "fd") {
		t.Fatalf("unexpected violation text: %v", vs[0])
	}
}

func TestFDCheckSkippedWithoutLabels(t *testing.T) {
	// AODV-style tables (FD = 0) must only be loop-checked.
	tables := map[int][]routing.RouteEntry{
		0: {{Dst: 3, Next: 1, Metric: 3, SeqNo: 9, Valid: true}},
		1: {{Dst: 3, Next: 3, Metric: 1, SeqNo: 5, Valid: true}},
	}
	if vs := loopcheck.Check(network(tables, 4)); len(vs) != 0 {
		t.Fatalf("label checks applied to unlabeled tables: %v", vs)
	}
}

func TestChainsMergingAreNotLoops(t *testing.T) {
	// Two branches converge on node 2 then reach the destination: a DAG,
	// not a loop.
	tables := map[int][]routing.RouteEntry{
		0: {{Dst: 4, Next: 2, Valid: true}},
		1: {{Dst: 4, Next: 2, Valid: true}},
		2: {{Dst: 4, Next: 3, Valid: true}},
		3: {{Dst: 4, Next: 4, Valid: true}},
	}
	if vs := loopcheck.Check(network(tables, 5)); len(vs) != 0 {
		t.Fatalf("converging DAG flagged as loop: %v", vs)
	}
}
