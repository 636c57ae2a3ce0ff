package core

import "testing"

// TestSizesMatchEncodings pins Size(), which MAC airtime reads, to the
// byte counts of the encoding the layout describes: 8-byte sequence
// numbers, 4-byte ids, distances and lifetime, one flag byte.
func TestSizesMatchEncodings(t *testing.T) {
	q := RREQ{TTL: 5}
	if want := 1 + 1 + 4 + 8 + 4 + 8 + 4 + 4 + 4 + 4 + 1; q.Size() != want {
		t.Fatalf("RREQ.Size = %d, encoding is %d bytes", q.Size(), want)
	}
	p := RREP{}
	if want := 1 + 1 + 4 + 8 + 4 + 4 + 4 + 4; p.Size() != want {
		t.Fatalf("RREP.Size = %d, encoding is %d bytes", p.Size(), want)
	}
	e := RERR{Unreachable: make([]RERRDest, 3)}
	if want := 1 + 2 + 3*(4+8); e.Size() != want {
		t.Fatalf("RERR.Size = %d, encoding is %d bytes", e.Size(), want)
	}
}
