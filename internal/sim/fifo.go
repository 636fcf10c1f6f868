package sim

// FIFO is a first-in first-out queue over a power-of-two ring buffer. Unlike
// the `q = q[1:]` idiom it reuses its storage: popping frees a slot that the
// next push fills, so a queue that never fully drains still holds at most
// one array, sized to the smallest power of two covering its peak
// occupancy. The zero value is an empty queue ready to use.
type FIFO[T any] struct {
	buf  []T
	head int
	n    int
}

// minFIFOCap is the first allocation of a queue that grows from empty.
const minFIFOCap = 4

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Front returns the oldest item without removing it. It panics on an empty
// queue.
func (q *FIFO[T]) Front() T {
	if q.n == 0 {
		panic("sim: Front of an empty FIFO")
	}
	return q.buf[q.head]
}

// Pop removes and returns the oldest item. It panics on an empty queue. The
// vacated slot is cleared so the queue keeps no reference to popped items.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop of an empty FIFO")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the ring, unrolling the queued items to the front.
func (q *FIFO[T]) grow() {
	c := 2 * len(q.buf)
	if c == 0 {
		c = minFIFOCap
	}
	buf := make([]T, c)
	if q.n > 0 {
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
	}
	q.buf = buf
	q.head = 0
}
