package sim

import "math/bits"

// wheelSize is the number of one-cycle buckets in a partition's time wheel.
// Events due less than wheelSize cycles after the last dispatched event sit
// in a bucket; later ones wait in the far heap. The size follows the
// scheduling-distance histogram of one paper-bus pass (4-GPU bus, 3.06 M
// events): 25% of events are scheduled 0 cycles ahead of the clock, 42% 1
// cycle, 28% 2–4 cycles and 98.5% at most 64 cycles ahead, while only about
// 30 land more than 256 cycles ahead. 256 buckets keep the far heap nearly
// empty with a four-word occupancy bitmap.
const (
	wheelSize = 256
	wheelMask = wheelSize - 1
)

// queuedEvent is one pending entry. The time is cached so ordering never
// calls through the Event interface, and lightweight ticks scheduled with
// ScheduleTick carry only a Handler (evt is nil), avoiding the interface
// boxing allocation that scheduling a concrete event value would cost.
type queuedEvent struct {
	time Time
	seq  uint64 // tie-breaker for determinism
	evt  Event  // nil for lightweight ticks
	h    Handler
}

func (q queuedEvent) less(o queuedEvent) bool {
	if q.time != o.time {
		return q.time < o.time
	}
	return q.seq < o.seq
}

// eventQueue is a partition's pending events in (time, seq) order: a time
// wheel of wheelSize one-cycle buckets for the near horizon and a 4-ary heap
// for everything beyond it.
//
// Every queued event is due at or after base, the time of the last popped
// event, so the wheel's window [base, base+wheelSize) maps each bucket to
// exactly one time and a bucket only has to order its events by seq. Each
// bucket is a seq-ordered chain through one node slab (index 0 ends a chain;
// freed nodes form a free list), so steady-state churn allocates nothing. An
// occupancy bitmap and the cached head time make push, pop and headTime
// O(1); the bitmap is scanned only when the head bucket empties. Far events
// move into their buckets as base advances, so the wheel's head is always
// the global minimum while the wheel holds anything.
type eventQueue struct {
	base    Time // time of the last popped event
	head    Time // time of the earliest occupied bucket, valid while inWheel > 0
	inWheel int

	occ   [wheelSize / 64]uint64
	first [wheelSize]int32
	last  [wheelSize]int32
	nodes []wheelNode // nodes[0] is unused, so slab index 0 means "none"
	free  int32

	far farHeap
}

// wheelNode is one slab slot: a queued event and the next node of its
// bucket chain, or of the free list.
type wheelNode struct {
	qe   queuedEvent
	next int32
}

// len returns the number of queued events.
func (q *eventQueue) len() int { return q.inWheel + len(q.far) }

// headTime returns the time of the earliest queued event, or TimeInf when
// the queue is empty.
func (q *eventQueue) headTime() Time {
	if q.inWheel > 0 {
		return q.head
	}
	if len(q.far) > 0 {
		return q.far[0].time
	}
	return TimeInf
}

// push queues an event at time t, which must not be before base.
func (q *eventQueue) push(t Time, seq uint64, evt Event, h Handler) {
	if t-q.base >= wheelSize {
		q.far.push(queuedEvent{time: t, seq: seq, evt: evt, h: h})
		return
	}
	q.insert(t, seq, evt, h)
}

// insert links an event into its bucket at its seq position. Sequence
// numbers minted by the owning partition grow, so a local event usually
// appends at the tail; but the bucket may hold stamps from a partition
// whose counter runs ahead, and a stamped merge or far-heap migration can
// carry a smaller seq than the tail. Those walk the chain.
func (q *eventQueue) insert(t Time, seq uint64, evt Event, h Handler) {
	i := q.alloc()
	n := &q.nodes[i]
	n.qe.time, n.qe.seq, n.qe.evt, n.qe.h = t, seq, evt, h
	b := int(t & wheelMask)
	switch tail := q.last[b]; {
	case tail == 0:
		q.first[b], q.last[b] = i, i
		q.occ[b>>6] |= 1 << (b & 63)
		if q.inWheel == 0 || t < q.head {
			q.head = t
		}
	case q.nodes[tail].qe.seq < seq:
		q.nodes[tail].next = i
		q.last[b] = i
	default:
		var prev int32
		cur := q.first[b]
		for q.nodes[cur].qe.seq < seq {
			prev, cur = cur, q.nodes[cur].next
		}
		n.next = cur
		if prev == 0 {
			q.first[b] = i
		} else {
			q.nodes[prev].next = i
		}
	}
	q.inWheel++
}

// alloc takes a node off the free list, growing the slab when it is empty.
func (q *eventQueue) alloc() int32 {
	if i := q.free; i != 0 {
		q.free = q.nodes[i].next
		q.nodes[i].next = 0
		return i
	}
	if len(q.nodes) == 0 {
		q.nodes = make([]wheelNode, 1, 16) // slot 0 stays unused
	}
	q.nodes = append(q.nodes, wheelNode{})
	return int32(len(q.nodes) - 1)
}

// popBefore removes and returns the earliest event if it is due before
// limit; otherwise it leaves the queue as it is and reports false.
func (q *eventQueue) popBefore(limit Time) (queuedEvent, bool) {
	var qe queuedEvent
	if q.inWheel == 0 {
		if len(q.far) == 0 || q.far[0].time >= limit {
			return qe, false
		}
		qe = q.far.pop()
	} else {
		if q.head >= limit {
			return qe, false
		}
		b := int(q.head & wheelMask)
		i := q.first[b]
		n := &q.nodes[i]
		qe = n.qe
		q.first[b] = n.next
		n.qe = queuedEvent{} // release the Event/Handler references
		n.next = q.free
		q.free = i
		q.inWheel--
		if q.first[b] == 0 {
			q.last[b] = 0
			q.occ[b>>6] &^= 1 << (b & 63)
			if q.inWheel > 0 {
				q.head += Time(q.nextOccupied(b))
			}
		}
	}
	q.base = qe.time
	for len(q.far) > 0 && q.far[0].time-q.base < wheelSize {
		m := q.far.pop()
		q.insert(m.time, m.seq, m.evt, m.h)
	}
	return qe, true
}

// nextOccupied returns the distance from the empty bucket b to the nearest
// occupied bucket after it, wrapping around the ring. The wheel must hold
// at least one event.
func (q *eventQueue) nextOccupied(b int) int {
	w := b >> 6
	word := q.occ[w] & (^uint64(0) << (b & 63))
	for k := 0; k <= len(q.occ); k++ {
		if word != 0 {
			return (w<<6 + bits.TrailingZeros64(word) - b) & wheelMask
		}
		w = (w + 1) % len(q.occ)
		word = q.occ[w]
	}
	panic("sim: time wheel occupancy bitmap is empty")
}

// farHeap is a hand-rolled 4-ary min-heap over queuedEvent for the events
// beyond the wheel's horizon. Compared to container/heap it is monomorphic
// (no `any` boxing, no interface-method dispatch per comparison) and
// shallower (4 children per node).
type farHeap []queuedEvent

func (q *farHeap) push(qe queuedEvent) {
	h := append(*q, qe)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !qe.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = qe
	*q = h
}

func (q *farHeap) pop() queuedEvent {
	h := *q
	top := h[0]
	last := h[len(h)-1]
	h[len(h)-1] = queuedEvent{} // release the Event/Handler references
	h = h[:len(h)-1]
	n := len(h)
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if h[j].less(h[m]) {
					m = j
				}
			}
			if !h[m].less(last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	*q = h
	return top
}
