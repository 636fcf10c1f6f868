package mem

import (
	"fmt"

	"mgpucompress/internal/sim"
)

// Pool recycles the four memory-message envelopes (ReadReq, WriteReq,
// DataReady, WriteACK) of one partition through plain slice free lists.
// The New* methods are the only way to build an envelope; Free hands one
// back for reuse.
//
// Ownership: an envelope belongs to whichever component last retrieved it
// from a port, and the component that consumes it without forwarding it
// frees it after its last read (DESIGN.md §9 lists who frees what). Only
// the partition's own worker touches its pool, so the pool takes no locks
// and its reuse order is deterministic. Envelopes never cross partitions:
// inter-GPU traffic travels as rdma wire messages.
//
// Free never recycles Data: a DataReady's bytes are handed on to the
// requester, and a WriteReq's bytes alias workload data or wire payloads.
// The zero Pool is ready to use.
type Pool struct {
	reads  []*ReadReq
	writes []*WriteReq
	datas  []*DataReady
	acks   []*WriteACK
	live   int
}

// envelope is the pool bookkeeping each envelope carries: the pool that
// issued it and whether it sits on that pool's free list.
type envelope struct {
	pool *Pool
	free bool
}

// take pops a recycled item off a free list, or allocates one.
func take[T any](list *[]*T) *T {
	n := len(*list)
	if n == 0 {
		return new(T)
	}
	v := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return v
}

// issue stamps a new envelope as live and owned by p.
func (p *Pool) issue() envelope {
	p.live++
	return envelope{pool: p}
}

// Outstanding returns the number of envelopes issued and not yet freed.
func (p *Pool) Outstanding() int { return p.live }

// NewReadReq builds a read request with correct wire size.
func (p *Pool) NewReadReq(src, dst *sim.Port, addr uint64, n int) *ReadReq {
	r := take(&p.reads)
	*r = ReadReq{envelope: p.issue(), Addr: addr, N: n}
	r.Src, r.Dst, r.Bytes = src, dst, ReadReqHeaderBytes
	return r
}

// NewWriteReq builds a write request with correct wire size (header plus
// uncompressed payload; the RDMA layer replaces the payload size when it
// compresses).
func (p *Pool) NewWriteReq(src, dst *sim.Port, addr uint64, data []byte) *WriteReq {
	w := take(&p.writes)
	*w = WriteReq{envelope: p.issue(), Addr: addr, Data: data}
	w.Src, w.Dst, w.Bytes = src, dst, WriteReqHeaderBytes+len(data)
	return w
}

// NewDataReady builds a read response.
func (p *Pool) NewDataReady(src, dst *sim.Port, rspTo uint64, addr uint64, data []byte) *DataReady {
	d := take(&p.datas)
	*d = DataReady{envelope: p.issue(), RspTo: rspTo, Addr: addr, Data: data}
	d.Src, d.Dst, d.Bytes = src, dst, DataReadyHeaderBytes+len(data)
	return d
}

// NewWriteACK builds a write acknowledgment.
func (p *Pool) NewWriteACK(src, dst *sim.Port, rspTo uint64, addr uint64) *WriteACK {
	a := take(&p.acks)
	*a = WriteACK{envelope: p.issue(), RspTo: rspTo, Addr: addr}
	a.Src, a.Dst, a.Bytes = src, dst, WriteACKHeaderBytes
	return a
}

// Free returns an envelope to the pool. It panics on a double free, on an
// envelope another pool issued, and on any other message type. The freed
// envelope is cleared, dropping its references (Data included) so the
// free list keeps nothing else alive.
func (p *Pool) Free(m sim.Msg) {
	switch v := m.(type) {
	case *ReadReq:
		p.release(&v.envelope, m)
		*v = ReadReq{envelope: v.envelope}
		p.reads = append(p.reads, v)
	case *WriteReq:
		p.release(&v.envelope, m)
		*v = WriteReq{envelope: v.envelope}
		p.writes = append(p.writes, v)
	case *DataReady:
		p.release(&v.envelope, m)
		*v = DataReady{envelope: v.envelope}
		p.datas = append(p.datas, v)
	case *WriteACK:
		p.release(&v.envelope, m)
		*v = WriteACK{envelope: v.envelope}
		p.acks = append(p.acks, v)
	default:
		panic(fmt.Sprintf("mem: Free of %T, which is not a pool envelope", m))
	}
}

// release checks that e is a live envelope of p and marks it free.
func (p *Pool) release(e *envelope, m sim.Msg) {
	if e.pool != p {
		panic(fmt.Sprintf("mem: %T %d freed into a pool that did not issue it", m, m.Meta().ID))
	}
	if e.free {
		panic(fmt.Sprintf("mem: double free of %T", m))
	}
	e.free = true
	p.live--
}
