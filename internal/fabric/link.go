package fabric

import (
	"fmt"

	"mgpucompress/internal/sim"
)

// hub is the partition-resident half shared by Bus and Crossbar: the
// endpoint table, the credit bookkeeping, and the fault-aware hand-off of
// completed transfers back to the owning partitions. The concrete fabric
// embeds it and supplies the arbitration policy.
//
// All hub state is touched only from hub-partition event handlers (or from
// Attach, before the simulation starts). Endpoint ports live in other
// partitions and are reached exclusively through sim.Remote links, so the
// fabric never reads another partition's mutable state mid-window.
type hub struct {
	sim.ComponentBase
	part *sim.Partition
	cfg  Config
	arb  arbiter // the concrete fabric (Bus/Crossbar/SwitchFabric)

	endpoints []*endpoint
	byPort    map[*sim.Port]*endpoint

	// pendingFaults counts fault-delayed deliveries scheduled but not yet
	// fired. While any are outstanding the bus must not raise next-send
	// bounds on its egress links: a delayed delivery may land earlier than
	// the busy horizon of a later transfer.
	pendingFaults int
}

// arbiter is the policy half of a concrete fabric. The hub calls it after
// an endpoint's ingress queue grew or its input credit was refunded, and
// routes fault-delayed deliveries to its Handle.
type arbiter interface {
	sim.Handler
	// ingressed runs arbitration after a message joined ep's ingress queue.
	ingressed(now sim.Time, ep *endpoint)
	// credited runs arbitration after ep's input credit grew.
	credited(now sim.Time, ep *endpoint)
}

// endpoint is the hub-side view of one attached port: its ingress queue
// (messages that crossed the wire from the owner and await arbitration) and
// the input-credit counter mirroring the destination buffer.
type endpoint struct {
	port    *sim.Port
	link    *fabricLink
	toOwner *sim.Remote
	queue   sim.FIFO[sim.Msg]
	// inCredit tracks how many bytes of the port's input buffer the hub may
	// still claim; -1 means the buffer is unbounded. Credits are reserved
	// when a transfer claims the fabric and returned by the owner-side link
	// as the component drains its port.
	inCredit int

	// deliver and outCredit are the hub-to-owner wires: completed
	// transfers land in the port, and output-buffer credits return to the
	// link. Both run at exactly LinkLatency, so each is a delay line. In
	// switched fabrics outCredit rides a dedicated hub-to-owner link:
	// switched fabrics publish next-send promises on toOwner while an
	// egress transmission is in flight, and credits for the endpoint's own
	// ingress traffic are emitted at injection time and may legitimately
	// precede that horizon, so they must ride a link the promise does not
	// cover.
	deliver   *sim.RemoteLine[sim.Msg]
	outCredit *sim.RemoteLine[int]

	// wire serializes the endpoint's one-at-a-time hub link: the output
	// link of a crossbar source, or the switch-to-owner egress wire of a
	// switched-fabric destination. One transmission is in flight at a time
	// and each starts no earlier than its predecessor finished, so
	// completions form a delay line. Unused by the bus.
	wire *sim.DelayLine[transfer]

	// Switched-fabric state (unused by bus and crossbar).
	//
	// sw is the switch this endpoint hangs off.
	sw int
	// egrInFlight and egrQueue serialize the endpoint's egress wire:
	// messages that reached the destination switch wait here for the
	// switch-to-owner link, which moves BytesPerCycle like every other
	// link. The flag (not a busy-until time) keeps the wire occupied until
	// the completion has actually fired: an event landing at exactly the
	// completion time must not start the next transmission first, or its
	// next-send promise would overtake the completed message's hand-off.
	egrInFlight bool
	egrQueue    sim.FIFO[sim.Msg]
}

// transfer is one transmission in flight on a serializing wire.
type transfer struct {
	msg   sim.Msg
	start sim.Time
}

func newHub(name string, part *sim.Partition, cfg Config) hub {
	if cfg.BytesPerCycle <= 0 {
		panic("fabric: BytesPerCycle must be positive")
	}
	if cfg.LinkLatency <= 0 {
		cfg.LinkLatency = 1
	}
	return hub{
		ComponentBase: sim.NewComponentBase(name),
		part:          part,
		cfg:           cfg,
		byPort:        make(map[*sim.Port]*endpoint),
	}
}

// Attach connects a port owned by a component in partition owner to the
// fabric. It builds the owner-side link (a sim.Connection local to the
// owner) and the sim.Remote channels carrying traffic and credits between
// the owner and the hub; the fabric's LinkLatency is the declared minimum
// latency of each, which floors the engine's adaptive window bounds on
// these links.
func (h *hub) Attach(p *sim.Port, owner *sim.Partition) { h.attach(p, owner, false) }

// attach implements Attach; creditLink routes output-buffer credits over a
// dedicated hub-to-owner link instead of toOwner (see endpoint.outCredit).
func (h *hub) attach(p *sim.Port, owner *sim.Partition, creditLink bool) *endpoint {
	credit := -1
	if c := p.Capacity(); c > 0 {
		credit = c
	}
	eng := h.part.Engine()
	ep := &endpoint{port: p, inCredit: credit}
	ep.toOwner = eng.Link(h.part, owner, h.cfg.LinkLatency)
	link := &fabricLink{hub: h, part: owner, port: p}
	toHub := eng.Link(owner, h.part, h.cfg.LinkLatency)
	link.ingress = sim.NewRemoteLine(toHub, func(now sim.Time, m sim.Msg) error {
		ep.queue.Push(m)
		h.arb.ingressed(now, ep)
		return nil
	})
	link.inCredit = sim.NewRemoteLine(toHub, func(now sim.Time, bytes int) error {
		ep.refund(bytes)
		h.arb.credited(now, ep)
		return nil
	})
	ep.deliver = sim.NewRemoteLine(ep.toOwner, link.land)
	creditOut := ep.toOwner
	if creditLink {
		creditOut = eng.Link(h.part, owner, h.cfg.LinkLatency)
	}
	ep.outCredit = sim.NewRemoteLine(creditOut, link.credit)
	ep.link = link
	h.endpoints = append(h.endpoints, ep)
	h.byPort[p] = ep
	p.SetConnection(link)
	return ep
}

// reserve claims n bytes of the destination's input credit; it reports
// false when the credit does not cover the message (head-of-line blocked).
func (ep *endpoint) reserve(n int) bool {
	if ep.inCredit < 0 {
		return true
	}
	if n > ep.inCredit {
		return false
	}
	ep.inCredit -= n
	return true
}

// refund returns a reservation that will never be delivered (fault drop).
func (ep *endpoint) refund(n int) {
	if ep.inCredit >= 0 {
		ep.inCredit += n
	}
}

// finish routes one completed transfer through the fault injector (when
// configured) and hands the survivor off toward its destination. The input
// credit was reserved at arbitration time: a dropped message refunds it, a
// delayed one keeps the reservation until the retry fires.
func (h *hub) finish(now sim.Time, msg sim.Msg) {
	if inj := h.cfg.Fault; inj != nil {
		out := inj.Apply(msg)
		if out.Msg == nil {
			h.byPort[msg.Meta().Dst].refund(msg.Meta().Bytes)
			return // dropped; the RDMA guard's timeout recovers
		}
		if out.Delay > 0 {
			// Fault delays vary per message, so the delayed hand-off is a
			// boxed event rather than a delay-line item.
			h.pendingFaults++
			h.part.Schedule(faultDeliverEvent{
				EventBase: sim.NewEventBase(now+out.Delay, h.arb),
				msg:       out.Msg,
			})
			return
		}
		msg = out.Msg
	}
	h.handOff(now, msg)
}

// handOff ships a message across the egress wire to the destination's
// owner partition, where the link delivers it into the port buffer.
func (h *hub) handOff(now sim.Time, msg sim.Msg) {
	h.byPort[msg.Meta().Dst].deliver.Post(now+h.cfg.LinkLatency, msg)
}

// faultDelivered finishes a fault-delayed delivery (see faultDeliverEvent).
func (h *hub) faultDelivered(now sim.Time, evt faultDeliverEvent) {
	h.pendingFaults--
	h.handOff(now, evt.msg)
}

// cycles returns the integral bus occupancy of a message.
func (h *hub) cycles(bytes int) sim.Time {
	c := sim.Time((bytes + h.cfg.BytesPerCycle - 1) / h.cfg.BytesPerCycle)
	if c == 0 {
		c = 1
	}
	return c
}

// outCredit returns output-buffer space to the source link once its message
// has claimed the fabric (the classic "output queue drains at arbitration"
// semantics, now with the wire latency made explicit).
func (h *hub) outCredit(now sim.Time, ep *endpoint, bytes int) {
	ep.outCredit.Post(now+h.cfg.LinkLatency, bytes)
}

// fabricLink is the owner-partition side of one fabric attachment. It
// implements sim.Connection for exactly one port: sends cross to the hub
// over a Remote, deliveries and credits come back the same way. Its only
// references into the hub are the immutable configuration and the
// Attach-time port table.
type fabricLink struct {
	hub  *hub
	part *sim.Partition
	port *sim.Port
	// ingress and inCredit are the owner-to-hub wires (one sim.Remote):
	// messages entering the fabric and drained input-buffer credit.
	ingress  *sim.RemoteLine[sim.Msg]
	inCredit *sim.RemoteLine[int]

	// outstanding counts bytes accepted into the endpoint's (modelled)
	// output buffer and not yet credited back by arbitration.
	outstanding int
	// lastUsed mirrors the hub's view of the destination buffer occupancy;
	// the difference to the port's actual usage is the credit to return.
	lastUsed int
}

// Partition implements sim.Connection.
func (l *fabricLink) Partition() *sim.Partition { return l.part }

// Plug implements sim.Connection. Fabric links are bound to their port at
// Attach time; plugging anything else is a wiring bug.
func (l *fabricLink) Plug(p *sim.Port) {
	if p != l.port {
		panic(fmt.Sprintf("fabric %s: link for %s cannot take port %s", l.hub.Name(), l.port.Name(), p.Name()))
	}
	p.SetConnection(l)
}

// Send implements sim.Connection: claim output-buffer space and put the
// message on the wire toward the hub. It reports false when the output
// buffer is full (the sender retries after NotifyPortFree).
func (l *fabricLink) Send(now sim.Time, m sim.Msg) bool {
	meta := m.Meta()
	if meta.Dst == nil {
		panic(fmt.Sprintf("fabric %s: message %d has no destination", l.hub.Name(), meta.ID))
	}
	if _, ok := l.hub.byPort[meta.Dst]; !ok {
		panic(fmt.Sprintf("fabric %s: destination port %s not attached", l.hub.Name(), meta.Dst.Name()))
	}
	n := meta.Bytes
	if n <= 0 {
		panic(fmt.Sprintf("fabric %s: message %d has no size", l.hub.Name(), meta.ID))
	}
	if max := l.hub.cfg.OutBufferBytes; max > 0 && l.outstanding+n > max {
		return false
	}
	l.outstanding += n
	meta.SendTime = now
	l.ingress.Post(now+l.hub.cfg.LinkLatency, m)
	return true
}

// NotifyBufferFree implements sim.Connection: the owning component drained
// its port, so input credit may flow back to the hub.
func (l *fabricLink) NotifyBufferFree(now sim.Time, _ *sim.Port) {
	l.reconcile(now)
}

// reconcile returns freed input-buffer bytes to the hub as credit.
func (l *fabricLink) reconcile(now sim.Time) {
	if l.port.Capacity() == 0 {
		return // unbounded buffer, no credits in play
	}
	used := l.port.UsedBytes()
	if freed := l.lastUsed - used; freed > 0 {
		l.lastUsed = used
		l.inCredit.Post(now+l.hub.cfg.LinkLatency, freed)
	}
}

// land delivers a completed transfer into the port, on the destination's
// own partition.
func (l *fabricLink) land(now sim.Time, m sim.Msg) error {
	// Count the delivery against the mirrored occupancy before Deliver: the
	// receiving component may drain the port synchronously from NotifyRecv,
	// and the freed bytes must be visible to reconcile.
	l.lastUsed += m.Meta().Bytes
	l.port.Deliver(now, m)
	l.reconcile(now)
	return nil
}

// credit frees output-buffer space after the link's message claimed the
// fabric.
func (l *fabricLink) credit(now sim.Time, bytes int) error {
	l.outstanding -= bytes
	l.port.Component().NotifyPortFree(now, l.port)
	return nil
}

// faultDeliverEvent finishes a fault-delayed delivery; the input-credit
// reservation from arbitration time is still held, so the hand-off needs no
// re-check. It is shared by the bus and the crossbar.
type faultDeliverEvent struct {
	sim.EventBase
	msg sim.Msg
}
