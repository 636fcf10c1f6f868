package sim

import "fmt"

// Connection moves messages from a source port to a destination port with
// some timing model. The inter-GPU bus fabric (internal/fabric) implements
// this interface with shared-bus arbitration; DirectConnection below models
// the wide on-die links inside a GPU. A connection's latency is a property
// of its construction, and every connection lives in exactly one partition —
// the one all of its ports' components belong to. That locality is what lets
// the window scheduler run partitions concurrently: a connection's deliveries
// never leave its partition, so only Remote links carry cross-window traffic.
type Connection interface {
	// Send starts transmitting m from m.Meta().Src toward m.Meta().Dst.
	// It reports false if the connection cannot take the message now.
	Send(now Time, m Msg) bool
	// NotifyBufferFree is called by a destination port when buffer space
	// frees up, letting the connection resume stalled deliveries.
	NotifyBufferFree(now Time, port *Port)
	// Plug attaches a port to this connection.
	Plug(p *Port)
	// Partition returns the partition this connection schedules on. Ports
	// use it to reach the run's message-ID counter.
	Partition() *Partition
}

// DirectConnection is a point-to-multipoint link with a fixed latency and
// unlimited bandwidth. It models on-die interconnect inside a GPU, which
// the paper treats as abundant relative to the inter-GPU fabric. The fixed
// latency makes its in-flight messages a delay line.
type DirectConnection struct {
	name    string
	part    *Partition
	latency Time
	// ports maps every plugged port to the messages parked for it while
	// its buffer was full.
	ports    map[*Port]*FIFO[Msg]
	inFlight *DelayLine[Msg]
}

// NewDirectConnection creates a direct connection on partition p with the
// given one-way latency in cycles, fixed for the connection's lifetime.
func NewDirectConnection(name string, p *Partition, latency Time) *DirectConnection {
	c := &DirectConnection{
		name:    name,
		part:    p,
		latency: latency,
		ports:   make(map[*Port]*FIFO[Msg]),
	}
	c.inFlight = NewDelayLine(p, c.deliver)
	return c
}

// Plug attaches a port.
func (c *DirectConnection) Plug(p *Port) {
	if c.ports[p] == nil {
		c.ports[p] = new(FIFO[Msg])
	}
	p.SetConnection(c)
}

// Partition returns the partition this connection schedules on.
func (c *DirectConnection) Partition() *Partition { return c.part }

// Latency returns the connection's fixed one-way latency.
func (c *DirectConnection) Latency() Time { return c.latency }

// Send schedules delivery after the connection latency. A DirectConnection
// never rejects a send; back-pressure is applied at the destination buffer
// (messages park until space frees).
func (c *DirectConnection) Send(now Time, m Msg) bool {
	dst := m.Meta().Dst
	if dst == nil {
		panic(fmt.Sprintf("sim: %s: message %d has no destination", c.name, m.Meta().ID))
	}
	if c.ports[dst] == nil {
		panic(fmt.Sprintf("sim: %s: destination port %s is not plugged in", c.name, dst.Name()))
	}
	m.Meta().SendTime = now
	c.inFlight.Push(now+c.latency, m)
	return true
}

// deliver lands a message whose latency has elapsed, parking it when the
// destination buffer is full (it resumes on NotifyBufferFree).
func (c *DirectConnection) deliver(now Time, m Msg) error {
	dst := m.Meta().Dst
	if !dst.CanAccept(m.Meta().Bytes) {
		c.ports[dst].Push(m)
		return nil
	}
	dst.Deliver(now, m)
	return nil
}

// NotifyBufferFree drains parked messages for the port in FIFO order. The
// queue length is re-read every iteration because Deliver can re-enter this
// method via the receiving component.
func (c *DirectConnection) NotifyBufferFree(now Time, port *Port) {
	parked := c.ports[port]
	if parked == nil {
		return
	}
	for parked.Len() > 0 {
		m := parked.Front()
		if !port.CanAccept(m.Meta().Bytes) {
			return
		}
		parked.Pop()
		port.Deliver(now, m)
	}
}
