package sim

import "fmt"

// DelayLine is a component-owned FIFO of in-flight items, each due at a
// point in simulated time. It replaces a boxed event value per item: Push
// queues the payload and schedules one allocation-free tick (ScheduleTick)
// for the line itself, and that tick pops the head and hands it to the
// owner's fire callback.
//
// The rule that makes this sound is monotonicity: due times never decrease
// in push order, so the line's ticks dispatch in exactly the order their
// payloads were queued and the head is always the item whose tick is
// firing. Push panics on an item due earlier than its predecessor. Fixed-
// latency pipelines (a wire, a hit path, a DRAM access) satisfy the rule by
// construction; events whose delays vary per item (fault-injected delays,
// codec latencies, retry timeouts) do not, and stay ordinary events.
//
// Each item occupies exactly the (time, seq) queue slot a boxed event
// scheduled at the same point would have, so converting an event type to a
// delay line changes no dispatch order.
type DelayLine[T any] struct {
	part *Partition
	fire func(now Time, v T) error
	q    FIFO[T]

	// lastTime and lastSeq are the queue slot of the newest item; every
	// new item must sort after it.
	lastTime Time
	lastSeq  uint64
}

// NewDelayLine creates a delay line on partition p whose items are handed
// to fire when they fall due. A non-nil error from fire stops the run like
// any handler error.
func NewDelayLine[T any](p *Partition, fire func(now Time, v T) error) *DelayLine[T] {
	return &DelayLine[T]{part: p, fire: fire}
}

// Push queues v to fall due at time t, which must not be earlier than the
// previous item's due time.
func (d *DelayLine[T]) Push(t Time, v T) {
	d.admit(t, d.part.enqueue(t, nil, d))
	d.q.Push(v)
}

// admit records the queue slot of a new item, panicking when it would
// dispatch before the current tail (its tick would pop a payload that is
// not its own). Locally pushed items always carry a fresh, larger sequence
// number, so for them only the due time can break the order.
func (d *DelayLine[T]) admit(t Time, seq uint64) {
	if t < d.lastTime || (t == d.lastTime && seq < d.lastSeq) {
		panic(fmt.Sprintf("sim: delay line item due at %d (seq %d) is earlier than the previous item at %d (seq %d)",
			t, seq, d.lastTime, d.lastSeq))
	}
	d.lastTime, d.lastSeq = t, seq
}

// Handle implements Handler: the line's tick pops the head item and fires
// it.
func (d *DelayLine[T]) Handle(e Event) error {
	return d.fire(e.Time(), d.q.Pop())
}

// RemoteLine is the cross-partition form of DelayLine, layered on a Remote
// link. Post runs in the source partition and queues the payload in a
// source-owned outbox; the window barrier (Engine.drainRemotes) moves each
// payload into a delay line owned by the destination partition and merges
// its tick with the sequence number the source stamped at posting time. No
// FIFO is ever touched by two partitions inside one window.
//
// Post enforces everything Remote.Schedule does (the link's latency floor
// and next-send bound) plus the delay-line rule: due times never decrease
// in posting order.
type RemoteLine[T any] struct {
	r *Remote
	// last is the due time of the newest post, kept on the source side.
	last Time
	// out holds payloads posted in the current window, in posting order.
	out FIFO[T]
	in  DelayLine[T]
}

// NewRemoteLine creates a cross-partition delay line over link r. fire runs
// in r's destination partition.
func NewRemoteLine[T any](r *Remote, fire func(now Time, v T) error) *RemoteLine[T] {
	return &RemoteLine[T]{r: r, in: DelayLine[T]{part: r.dst, fire: fire}}
}

// Post sends v across the link to fall due at time t. Local links
// (src == dst) and posts from host code between runs bypass the outbox and
// queue directly on the destination, like Remote.Schedule.
func (l *RemoteLine[T]) Post(t Time, v T) {
	r := l.r
	r.checkFloor(t)
	if t < l.last {
		panic(fmt.Sprintf("sim: remote line item due at %d is earlier than the previous item at %d", t, l.last))
	}
	l.last = t
	if r.src == r.dst || !r.src.eng.running {
		l.in.Push(t, v)
		return
	}
	r.stage(t, nil, l)
	l.out.Push(v)
}

// land moves the oldest posted payload into the destination line and merges
// its tick at the slot the source stamped. Called only by the barrier drain,
// which entries reach in posting order.
func (l *RemoteLine[T]) land(t Time, seq uint64) {
	l.in.admit(t, seq)
	l.in.q.Push(l.out.Pop())
	l.r.dst.enqueueStamped(t, seq, nil, &l.in)
}
