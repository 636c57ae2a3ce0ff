package sim

import (
	"math/bits"
	"time"
)

// eventQueue holds the pending events in two tiers, both ordered by
// (time, insertion sequence). Almost every event is due within a few tens
// of milliseconds of the last one fired — a backoff slot, an airtime, an
// ACK timeout — and those go to the near tier, a calendar (Brown, CACM
// 1988): a ring of buckets each 2^bucketShift ns wide, covering ringSize
// buckets from the bucket of the last event fired. Everything further out
// (protocol ticks, route lifetimes) goes to the far tier, a 4-ary heap. The earliest event is whichever of the first
// non-empty bucket's head and the heap's root sorts first on (time, seq);
// that key is a total order — seq is unique — so the pop order is the
// sorted order whatever tier holds an event.
//
// Why the window can start at the last event fired: every queued event is
// due at or after it (an event is scheduled at or after the clock, and the
// clock is at or after the last event fired), and the window only moves
// forward, so an event that was within ringSize buckets of the window's
// start when it was pushed still is. The ring's events therefore fall in
// ringSize consecutive bucket-wide slots, one slot to a bucket, and
// walking the ring from the window's start visits them in time order.
type eventQueue struct {
	ring *calendar // allocated by the first push into it
	near int       // events in the ring
	base uint64    // slot of the last event fired: the ring's first bucket
	far  eventHeap
}

const (
	bucketShift = 15      // a bucket is 2^15 ns ≈ 32.8 µs wide
	ringSize    = 1 << 10 // buckets: the ring spans ≈ 33.6 ms
	ringMask    = ringSize - 1
)

// Values of Event.index other than a heap position.
const (
	notQueued = -1
	inRing    = -2
)

// slot numbers the bucket-wide intervals of virtual time.
func slot(at time.Duration) uint64 { return uint64(at) >> bucketShift }

// calendar is the near tier. Bucket i holds the events of the one slot in
// the window congruent to i, as a list through Event.prev/next sorted by
// (at, seq); bit i of occupied is set exactly when that list is non-empty.
type calendar struct {
	occupied [ringSize / 64]uint64
	buckets  [ringSize]bucket
}

type bucket struct{ head, tail *Event }

// push queues ev, which has just been stamped with the largest seq issued
// so far.
func (q *eventQueue) push(ev *Event) {
	if slot(ev.at)-q.base >= ringSize {
		q.far.push(ev)
		return
	}
	if q.ring == nil {
		q.ring = new(calendar)
	}
	q.ring.insert(ev)
	q.near++
}

// min returns the earliest queued event without removing it, or nil when
// the queue is empty.
func (q *eventQueue) min() *Event {
	var ev *Event
	if q.near > 0 {
		ev = q.ring.first(q.base)
	}
	if len(q.far) > 0 && (ev == nil || q.far[0].before(entry{at: ev.at, seq: ev.seq})) {
		return q.far[0].ev
	}
	return ev
}

// take removes ev, the event min returned, for firing: the ring's window
// moves up to its slot.
func (q *eventQueue) take(ev *Event) {
	q.remove(ev)
	q.base = slot(ev.at)
}

// remove takes a queued event out of whichever tier holds it.
func (q *eventQueue) remove(ev *Event) {
	if ev.index == inRing {
		q.ring.unlink(ev)
		q.near--
	} else {
		q.far.remove(ev.index)
	}
	ev.index = notQueued
}

// insert links ev into its bucket after every event due at or before it:
// ev's seq is the largest yet, so among events due at the same instant it
// goes last. Most events land at or near the tail, where the walk starts.
func (c *calendar) insert(ev *Event) {
	i := slot(ev.at) & ringMask
	b := &c.buckets[i]
	p := b.tail
	for p != nil && p.at > ev.at {
		p = p.prev
	}
	ev.prev = p
	if p == nil {
		ev.next, b.head = b.head, ev
	} else {
		ev.next, p.next = p.next, ev
	}
	if ev.next == nil {
		b.tail = ev
	} else {
		ev.next.prev = ev
	}
	c.occupied[i/64] |= 1 << (i % 64)
	ev.index = inRing
}

func (c *calendar) unlink(ev *Event) {
	i := slot(ev.at) & ringMask
	b := &c.buckets[i]
	if ev.prev == nil {
		b.head = ev.next
	} else {
		ev.prev.next = ev.next
	}
	if ev.next == nil {
		b.tail = ev.prev
	} else {
		ev.next.prev = ev.prev
	}
	if b.head == nil {
		c.occupied[i/64] &^= 1 << (i % 64)
	}
	ev.prev, ev.next = nil, nil
}

// first returns the head of the first non-empty bucket at or after the
// window's start, wrapping around the ring. The ring must not be empty.
func (c *calendar) first(base uint64) *Event {
	i := base & ringMask
	w := i / 64
	word := c.occupied[w] >> (i % 64) << (i % 64) // buckets before i are the window's end
	for word == 0 {
		w = (w + 1) % uint64(len(c.occupied))
		word = c.occupied[w] // back at the start word, its low bits come last, as they should
	}
	return c.buckets[w*64+uint64(bits.TrailingZeros64(word))].head
}

// eventHeap is the far tier: a 4-ary min-heap ordered by (time, insertion
// sequence). The key travels in the slice entry beside the event pointer,
// so sifting compares neighbouring memory and never dereferences an event;
// the four children of a node are 96 contiguous bytes, and the tree is half
// as deep as a binary heap's.
//
// Every move writes the event's index back, which is what lets
// Timer.Cancel remove from the middle in O(log n).
type eventHeap []entry

type entry struct {
	at  time.Duration
	seq uint64
	ev  *Event
}

func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// set stores e at position i and records the position on its event.
func (h eventHeap) set(i int, e entry) {
	h[i] = e
	e.ev.index = i
}

func (h *eventHeap) push(ev *Event) {
	*h = append(*h, entry{})
	h.up(len(*h)-1, entry{at: ev.at, seq: ev.seq, ev: ev})
}

// remove takes the event at position i out of the heap; position 0 is the
// earliest event.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	last := old[n]
	old[n] = entry{}
	*h = old[:n]
	if i < n {
		// Refill the hole with the last entry: it may belong above the hole
		// (only possible when removing from the middle) or below it.
		if i > 0 && last.before(old[(i-1)/4]) {
			h.up(i, last)
		} else {
			h.down(i, last)
		}
	}
}

// up places e at or above position i, moving larger parents down.
func (h eventHeap) up(i int, e entry) {
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(h[p]) {
			break
		}
		h.set(i, h[p])
		i = p
	}
	h.set(i, e)
}

// down places e at or below position i, moving the smallest child up.
func (h eventHeap) down(i int, e entry) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(e) {
			break
		}
		h.set(i, h[m])
		i = m
	}
	h.set(i, e)
}
