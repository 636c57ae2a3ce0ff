package main

import (
	"container/heap"
	"time"
)

// The reference kernel. The hosts this benchmark runs on change speed under
// it: for minutes at a time, and in bursts of seconds within those, the same
// fixed simulation takes up to 40 % longer (neighbours on the memory system
// and the core; the arithmetic spin loop of the host stamp moves by a
// quarter of that). No statistic of one run's own times can see a slow
// phase that outlasts the run. So every pass interleaves, between slices of
// its work, a fixed piece of other work that responds to the host the way
// the simulator does — a small discrete-event loop over a pointer heap and
// an array of node records — and reports its times in reference seconds:
// the wall time multiplied by refNominalMs over the mean time of the
// interleaved reference samples. The kernel lives here and calls nothing
// outside this file, so no change to the repository moves it.

const (
	refSteps     = 50_000                 // events of one reference sample
	refInterval  = 300 * time.Millisecond // work between two samples
	refNominalMs = 13.0                   // one sample on the quiet reference host
)

type refEvent struct {
	at    uint64
	node  int
	index int
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i]; q[i].index, q[j].index = i, j }
func (q *refQueue) Push(x any)        { e := x.(*refEvent); e.index = len(*q); *q = append(*q, e) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

type refNode struct {
	state     [64]uint64
	neighbors [12]int32
}

// refKernel is one instance of the reference loop: 1024 node records
// (half a megabyte), 4096 pending events.
type refKernel struct {
	nodes []refNode
	queue refQueue
	x     uint64
	sink  uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{nodes: make([]refNode, 1024), x: 88172645463325252}
	for i := range k.nodes {
		for j := range k.nodes[i].neighbors {
			k.nodes[i].neighbors[j] = int32(k.rand() % uint64(len(k.nodes)))
		}
	}
	for i := 0; i < 4096; i++ {
		heap.Push(&k.queue, &refEvent{at: k.rand() % 1_000_000, node: int(k.rand() % uint64(len(k.nodes)))})
	}
	k.sample() // fault the pages in
	return k
}

func (k *refKernel) rand() uint64 {
	k.x ^= k.x << 13
	k.x ^= k.x >> 7
	k.x ^= k.x << 17
	return k.x
}

// sample fires refSteps events — pop the earliest, touch its node's
// neighbours, reschedule it — and returns how long that took.
func (k *refKernel) sample() time.Duration {
	t0 := time.Now()
	for s := 0; s < refSteps; s++ {
		e := heap.Pop(&k.queue).(*refEvent)
		now := e.at
		for _, nb := range k.nodes[e.node].neighbors {
			m := &k.nodes[nb]
			m.state[now%64] += now
			k.sink += m.state[(now>>3)%64]
		}
		e.at = now + 1 + k.rand()%100_000
		e.node = int(k.rand() % uint64(len(k.nodes)))
		heap.Push(&k.queue, e)
	}
	return time.Since(t0)
}

// refClock interleaves reference samples with the slices of the operations
// one goroutine runs. Callers tick it between slices, outside what they
// time.
type refClock struct {
	kernel  *refKernel
	last    time.Time
	samples []float64 // milliseconds
	spent   time.Duration
}

func newRefClock() *refClock { return &refClock{kernel: newRefKernel()} }

// tick takes a sample if refInterval of work has passed since the last one
// (or force is set) and returns the time it took.
func (c *refClock) tick(force bool) time.Duration {
	if !force && time.Since(c.last) < refInterval {
		return 0
	}
	d := c.kernel.sample()
	c.samples = append(c.samples, float64(d)/1e6)
	c.spent += d
	c.last = time.Now()
	return d
}
