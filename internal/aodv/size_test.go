package aodv

import "testing"

// TestSizesMatchEncodings pins Size(), which MAC airtime reads, to the
// byte counts of the encoding the layout describes: 4-byte ids and
// sequence numbers, 1-byte hop count and TTL, 2-byte list count.
func TestSizesMatchEncodings(t *testing.T) {
	cases := []struct {
		m    interface{ Size() int }
		want int
	}{
		{&RREQ{TTL: 3}, 1 + 1 + 4 + 4 + 4 + 4 + 4 + 1 + 1},
		{&RREP{}, 1 + 4 + 4 + 4 + 1 + 4},
		{&RERR{Unreachable: make([]RERRDest, 2)}, 1 + 2 + 2*(4+4)},
	}
	for _, c := range cases {
		if c.m.Size() != c.want {
			t.Fatalf("%T.Size() = %d, encoding is %d bytes", c.m, c.m.Size(), c.want)
		}
	}
}
