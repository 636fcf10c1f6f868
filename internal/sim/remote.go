package sim

// remoteEntry is one event parked in a link's outbox until the next window
// barrier, carrying the sequence number its source partition stamped at
// emission time. Exactly one of evt (a boxed event) and line (a RemoteLine
// whose payload waits in its own outbox) is set.
type remoteEntry struct {
	time Time
	seq  uint64
	evt  Event
	line lander
}

// lander is the barrier-side half of a RemoteLine: it moves the line's
// oldest posted payload to the destination and merges its tick.
type lander interface {
	land(t Time, seq uint64)
}

// Remote is a scheduling channel between two partitions, created with
// Engine.Link. During a window the source side appends events to a private
// outbox (the source partition's worker is the only writer); at the barrier
// the engine merges every dirty outbox into the destination queue and
// recycles the buffer through the source partition's pool. Entries carry
// sequence numbers stamped by the source at emission time, so the
// destination's (time, seq) dispatch order is a pure function of simulation
// content — independent of window placement, merge order, and core count.
// Because the declared latency keeps emissions at or past the window limit,
// merged events never land in a partition's past.
type Remote struct {
	src     *Partition
	dst     *Partition
	latency Time
	buf     []remoteEntry

	// nextSend is the link's next-send bound: a promise by the owning
	// component that no event with a time below it will be scheduled on this
	// link. The window scheduler folds it into the adaptive limit, so raising
	// it widens windows beyond what the source's head event alone allows.
	nextSend Time
}

// MinLatency returns the link's declared minimum latency.
func (r *Remote) MinLatency() Time { return r.latency }

// Dst returns the destination partition.
func (r *Remote) Dst() *Partition { return r.dst }

// SetNextSend raises the link's next-send bound to t: the caller promises no
// event with a time below t will ever be scheduled on this link. The promise
// must follow from state the source component has already committed — it may
// not be invalidated by anything that could still arrive (a fabric bus that
// arbitrates nothing while a transfer occupies the wire can promise its busy
// horizon; a component that merely has an empty queue cannot, because a
// same-cycle delivery could refill it). Lowering is ignored: bounds only
// ratchet up, and Schedule panics on an emission that breaks one.
func (r *Remote) SetNextSend(t Time) {
	if t > r.nextSend {
		r.nextSend = t
	}
}

// Schedule sends evt across the link. The event's time must be at least the
// source partition's current time plus the link latency — that floor is what
// makes the conservative window safe, so violating it panics. Local links
// (src == dst) and calls from host code between runs bypass the outbox and
// enqueue directly on the destination.
//
// When the source is running alone in a dynamic window, each emission
// collapses the source's window limit to the earliest time the recipient's
// reaction could travel back through the link graph, so the lone partition
// never dispatches anything its own traffic might retroactively disturb.
func (r *Remote) Schedule(evt Event) {
	t := evt.Time()
	r.checkFloor(t)
	if r.src == r.dst || !r.src.eng.running {
		r.dst.Schedule(evt)
		return
	}
	r.stage(t, evt, nil)
}

// checkFloor panics when an emission at t would undercut the link's latency
// floor.
func (r *Remote) checkFloor(t Time) {
	if min := satAdd(r.src.now, r.latency); t < min {
		panic("sim: remote event scheduled under the link's latency floor")
	}
}

// stage parks one cross-partition emission in the link's outbox, stamping
// it with the source's next sequence number, and collapses a dynamic
// window's limit when the source runs alone.
func (r *Remote) stage(t Time, evt Event, line lander) {
	src := r.src
	if t < r.nextSend {
		panic("sim: remote event scheduled under the link's next-send bound")
	}
	if r.buf == nil {
		r.buf = src.takeBuf()
		src.dirty = append(src.dirty, r)
	}
	r.buf = append(r.buf, remoteEntry{time: t, seq: src.nextSeq(), evt: evt, line: line})
	if src.dynamic {
		if back := satAdd(t, src.eng.dist[r.dst.idx][src.idx]); back < src.curLimit {
			src.curLimit = back
		}
	}
}

// satAdd adds two times, saturating at TimeInf.
func satAdd(a, b Time) Time {
	if b >= TimeInf-a {
		return TimeInf
	}
	return a + b
}
