package core

import (
	"bytes"
	"testing"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/routing"
)

// TestModelStateKeepsAlternateOrder: promoteAlt breaks a tie in advertised
// distance by position, so two entries whose alternates differ only in
// order promote different successors, and the model-state encoding must
// tell them apart.
func TestModelStateKeepsAlternateOrder(t *testing.T) {
	nw := routing.NewNetwork(1, mobility.NewStatic(make([]mobility.Point, 1)), radio.DefaultConfig(), mac.DefaultConfig(), 1,
		func(node *routing.Node) routing.Protocol { return New(node, DefaultConfig()) })
	l := nw.Nodes[0].Protocol().(*LDR)
	var enc [2][]byte
	for i, order := range [2][]routing.NodeID{{1, 2}, {2, 1}} {
		l.routes = table{4: {known: true, seq: NewSeqno(1, 1), dist: 3, fd: 3, next: 3, valid: true}}
		e := &l.routes[4]
		for _, via := range order {
			e.rememberAlt(via, e.seq, 2, 0)
		}
		enc[i] = l.AppendModelState(nil)
		if !e.promoteAlt(0) || e.next != order[0] {
			t.Fatalf("alternates %v at one advertised distance: promoted %d, want the first, %d", order, e.next, order[0])
		}
	}
	if bytes.Equal(enc[0], enc[1]) {
		t.Errorf("alternates [1 2] and [2 1] at one advertised distance encode alike: %x", enc[0])
	}
}
