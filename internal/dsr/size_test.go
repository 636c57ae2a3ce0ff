package dsr

import "testing"

func TestSizeGrowsWithRoute(t *testing.T) {
	short := RREQ{Route: ids(0)}
	long := RREQ{Route: ids(0, 1, 2, 3, 4, 5, 6, 7)}
	if long.Size() != short.Size()+7*4 {
		t.Fatalf("per-hop header cost: %d -> %d", short.Size(), long.Size())
	}
}

// TestSizesMatchEncodings pins Size(), which MAC airtime reads, to the
// byte counts of the encoding the layout describes: a type byte, the
// fixed fields, a 2-byte route count and 4 bytes per hop.
func TestSizesMatchEncodings(t *testing.T) {
	cases := []struct {
		name string
		size int
		want int
	}{
		{"RREQ", (&RREQ{TTL: 3, Route: ids(0, 1, 2)}).Size(), 1 + 4 + 4 + 4 + 1 + 2 + 3*4},
		{"RREP", (&RREP{Route: ids(0, 1)}).Size(), 1 + 4 + 4 + 4 + 2 + 2 + 2*4},
		{"RERR", (&RERR{Route: ids(2, 1, 0)}).Size(), 1 + 4 + 4 + 4 + 2 + 2 + 3*4},
		{"empty RERR", (&RERR{}).Size(), 1 + 4 + 4 + 4 + 2 + 2},
	}
	for _, c := range cases {
		if c.size != c.want {
			t.Fatalf("%s.Size = %d, encoding is %d bytes", c.name, c.size, c.want)
		}
	}
}
