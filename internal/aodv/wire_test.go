package aodv

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/manetlab/ldr/internal/routing"
)

func TestRREQRoundTrip(t *testing.T) {
	f := func(dst, origin int32, dstSeq, originSeq, reqID uint32, hop, ttl uint8, unknown bool) bool {
		q := RREQ{
			Dst: routing.NodeID(dst), DstSeq: dstSeq, UnknownSeq: unknown,
			Origin: routing.NodeID(origin), OriginSeq: originSeq,
			ReqID: reqID, HopCount: int(hop), TTL: int(ttl),
		}
		got, err := UnmarshalRREQ(q.Marshal())
		return err == nil && reflect.DeepEqual(got, q)
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRREPRoundTrip(t *testing.T) {
	p := RREP{Dst: 9, DstSeq: 17, Origin: 3, HopCount: 4, Lifetime: 2500 * time.Millisecond}
	got, err := UnmarshalRREP(p.Marshal())
	if err != nil || !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip: %+v != %+v (%v)", got, p, err)
	}
}

func TestRERRRoundTrip(t *testing.T) {
	e := RERR{Unreachable: []RERRDest{{Dst: 1, Seq: 2}, {Dst: 3, Seq: 4}}}
	got, err := UnmarshalRERR(e.Marshal())
	if err != nil || !reflect.DeepEqual(got, e) {
		t.Fatalf("round trip: %+v != %+v (%v)", got, e, err)
	}
}

func TestSizesMatchEncodings(t *testing.T) {
	msgs := []interface {
		routing.Message
		Marshal() []byte
	}{
		&RREQ{TTL: 3},
		&RREP{},
		&RERR{Unreachable: make([]RERRDest, 2)},
	}
	for _, m := range msgs {
		enc := m.Marshal()
		if m.Size() != len(enc) {
			t.Fatalf("%T.Size() = %d, encoding is %d bytes", m, m.Size(), len(enc))
		}
	}
}
