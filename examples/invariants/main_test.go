package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestInvariants runs the example: the loop check holds at both dumps, the
// far-end request reset the labels along the chain with T's own sequence
// number, and only T raised it.
func TestInvariants(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if n := strings.Count(got, "loopcheck: successor graph loop-free, ordering criterion holds"); n != 2 || strings.Contains(got, "VIOLATION") {
		t.Errorf("the loop check holds at %d of 2 dumps:\n%s", n, got)
	}
	for _, want := range []string{
		"  E -> T   1/1, sn=0\n",
		"  E -> B   4/4, sn=3\n  B -> C   3/3, sn=3\n  C -> D   2/2, sn=3\n  D -> T   1/1, sn=3\n",
		"T's own sequence number counter: 3\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}
