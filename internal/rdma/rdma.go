package rdma

import (
	"fmt"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/metrics"
	"mgpucompress/internal/sim"
	"mgpucompress/internal/stats"
	"mgpucompress/internal/trace"
)

// Recorder observes traffic at the compression points. The experiment
// runner implements it to build Tables V/VI and Figures 1/5/6/7.
type Recorder interface {
	// RemoteRead is called when a read request leaves gpu for a remote
	// owner.
	RemoteRead(gpu int)
	// RemoteWrite is called when a write request leaves gpu.
	RemoteWrite(gpu int)
	// Payload is called for every payload-bearing transfer entering the
	// fabric, with the original bytes and the policy's decision.
	Payload(line []byte, d core.Decision)
	// Header is called with the header bytes of every wire message.
	Header(bytes int)
}

// NopRecorder discards all observations.
type NopRecorder struct{}

// RemoteRead implements Recorder.
func (NopRecorder) RemoteRead(int) {}

// RemoteWrite implements Recorder.
func (NopRecorder) RemoteWrite(int) {}

// Payload implements Recorder.
func (NopRecorder) Payload([]byte, core.Decision) {}

// Header implements Recorder.
func (NopRecorder) Header(int) {}

// Engine is the per-GPU RDMA engine. It faces three ways:
//
//   - ToL1 receives remote-destined mem.ReadReq/mem.WriteReq from the GPU's
//     L1 caches and returns their responses;
//   - ToFabric is plugged into the inter-GPU bus;
//   - ToL2 issues incoming remote requests into the GPU's own L2 banks.
//
// Outgoing payloads are compressed by the policy; incoming payloads are
// decompressed (with the codec's latency) unless Comp Alg is 0.
type Engine struct {
	sim.ComponentBase
	part   *sim.Partition
	pool   *mem.Pool
	ticker *sim.Ticker

	GPU    int
	Policy core.Policy
	Rec    Recorder

	// Guard, when non-nil, enables the reliability protocol layered over
	// the Fig. 4 wire messages: CRC32C trailers on payload-bearing
	// messages, NACKs on CRC failure, and bounded retransmission with
	// exponential backoff driven by per-request timeouts. It exists to
	// recover from injected fabric faults (internal/fault); with no guard
	// the engine behaves exactly as before — any loss or corruption is a
	// hard error.
	Guard *GuardConfig
	// Spans, when non-nil alongside Guard, records every retransmission as
	// a trace span on this engine's track.
	Spans *trace.Recorder

	ToL1     *sim.Port
	ToFabric *sim.Port
	ToL2     *sim.Port

	// OwnerOf maps an address to its owning GPU.
	OwnerOf func(addr uint64) int
	// RemotePort maps a GPU ID to its RDMA fabric port.
	RemotePort func(gpu int) *sim.Port
	// L2Router maps a local address to the L2 bank port serving it.
	L2Router func(addr uint64) *sim.Port

	// outQueue holds wire messages that did not fit in the fabric's 4 KB
	// per-endpoint output buffer. The fabric enforces the paper's buffer
	// bound; this queue models the engine's internal pipeline registers
	// upstream of it and is drained strictly in order.
	outQueue sim.FIFO[sim.Msg]

	// Transaction tracking. Outgoing requests await their wire response;
	// incoming remote requests forwarded into local L2 await the L2's.
	pendingReads  map[uint64]*txn // wire ReadReq ID -> remote read
	pendingWrites map[uint64]*txn // wire WriteReq ID -> remote write
	serviceReads  map[uint64]*txn // local L2 ReadReq ID -> served read
	serviceWrites map[uint64]*txn // local L2 WriteReq ID -> served write
	// freeTxns recycles completed transaction records; live counts the
	// records handed out and not yet recycled.
	freeTxns []*txn
	live     int

	// Stats
	ReadsSent    uint64
	WritesSent   uint64
	ReadsServed  uint64
	WritesServed uint64
	// ReadLatency records, per completed remote read, the cycles from the
	// request leaving this engine to the decompressed data reaching the
	// requesting L1 — the end-to-end remote access latency.
	ReadLatency stats.Histogram

	// Guard stats (all zero while Guard is nil).
	Retries       uint64 // retransmissions (timeout- and NACK-triggered)
	CRCErrors     uint64 // incoming payloads that failed the CRC32C check
	NACKsSent     uint64 // NACKs emitted for rejected payloads
	StaleDrops    uint64 // duplicate/late responses dropped after completion
	TimeoutsFired uint64 // retransmissions triggered by timeout (subset of Retries)
}

// GuardConfig parameterizes the reliability protocol.
type GuardConfig struct {
	// TimeoutCycles is the base retransmit timeout; attempt n waits
	// TimeoutCycles<<(n-1).
	TimeoutCycles sim.Time
	// MaxAttempts bounds transmissions per request, the initial send
	// included; exhausting it is a hard simulation error, never silent
	// data loss.
	MaxAttempts int
}

// txnKind names the four transactions an engine takes part in.
type txnKind uint8

const (
	remoteRead  txnKind = iota // a local L1 read of remote memory
	remoteWrite                // a local L1 write to remote memory
	servedRead                 // a remote GPU's read of local memory
	servedWrite                // a remote GPU's write to local memory
)

// txn is the whole state of one transaction, recycled through the
// engine's free list. It is also the sim.Handler of the transaction's one
// codec-latency tick: compression before a remote write or a served read's
// response leaves, decompression before a remote read's data or a served
// write's payload is forwarded. A record returns to the free list only
// when its transaction is complete and no tick is pending on it.
type txn struct {
	e    *Engine
	kind txnKind

	// readReq/writeReq is the L1's request (remote reads and writes).
	readReq  *mem.ReadReq
	writeReq *mem.WriteReq
	// wireRead/wireWrite is the wire request: sent by this engine for
	// remote transactions, received by it for served ones.
	wireRead  *ReadReq
	wireWrite *WriteReq
	// rsp is a remote read's wire response, decoded by the tick; out is a
	// served read's wire response, sent by the tick.
	rsp *DataReady
	out *DataReady

	issued   sim.Time // when a remote read left this engine
	attempts int      // transmissions of a remote request so far
	ticking  bool     // a codec-latency tick is pending
	done     bool     // the transaction has completed
}

// Handle implements sim.Handler: the codec latency has elapsed.
func (t *txn) Handle(ev sim.Event) error {
	t.ticking = false
	return t.e.codecDone(ev.Time(), t)
}

// RegisterMetrics exposes the engine's counters under prefix (e.g.
// "gpu2/rdma", "host/rdma"), plus the output-queue depth and the remote
// read-latency distribution.
func (e *Engine) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"/reads_sent", func() uint64 { return e.ReadsSent })
	reg.CounterFunc(prefix+"/writes_sent", func() uint64 { return e.WritesSent })
	reg.CounterFunc(prefix+"/reads_served", func() uint64 { return e.ReadsServed })
	reg.CounterFunc(prefix+"/writes_served", func() uint64 { return e.WritesServed })
	reg.GaugeFunc(prefix+"/queue_depth", func() float64 { return float64(e.outQueue.Len()) })
	reg.DistributionFunc(prefix+"/read_latency", func() metrics.DistValue {
		return metrics.DistValue{
			Count: uint64(e.ReadLatency.Count()),
			Sum:   e.ReadLatency.Sum(),
			Min:   e.ReadLatency.Min(),
			Max:   e.ReadLatency.Max(),
		}
	})
}

// RegisterGuardMetrics exposes the reliability-protocol counters under
// prefix. It is a separate registration from RegisterMetrics on purpose:
// snapshot bytes include every registered path, so the guard paths must
// only exist when the fault layer is enabled, keeping fault-free snapshots
// byte-identical to builds predating the guard.
func (e *Engine) RegisterGuardMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"/retries", func() uint64 { return e.Retries })
	reg.CounterFunc(prefix+"/crc_errors", func() uint64 { return e.CRCErrors })
	reg.CounterFunc(prefix+"/nacks", func() uint64 { return e.NACKsSent })
	reg.CounterFunc(prefix+"/stale_drops", func() uint64 { return e.StaleDrops })
	reg.CounterFunc(prefix+"/timeouts", func() uint64 { return e.TimeoutsFired })
}

// New creates an RDMA engine for the given GPU index. Its local-side
// messages come from the partition's envelope pool.
func New(name string, part *sim.Partition, pool *mem.Pool, gpu int, policy core.Policy, rec Recorder) *Engine {
	if rec == nil {
		rec = NopRecorder{}
	}
	e := &Engine{
		ComponentBase: sim.NewComponentBase(name),
		part:          part,
		pool:          pool,
		GPU:           gpu,
		Policy:        policy,
		Rec:           rec,
		pendingReads:  make(map[uint64]*txn),
		pendingWrites: make(map[uint64]*txn),
		serviceReads:  make(map[uint64]*txn),
		serviceWrites: make(map[uint64]*txn),
	}
	e.ToL1 = sim.NewPort(e, name+".ToL1", 8*1024)
	e.ToFabric = sim.NewPort(e, name+".ToFabric", 4*1024) // paper: 4 KB input buffer
	e.ToL2 = sim.NewPort(e, name+".ToL2", 8*1024)
	e.ticker = sim.NewTicker(part, e)
	return e
}

// NotifyRecv implements sim.Component.
func (e *Engine) NotifyRecv(now sim.Time, _ *sim.Port) { e.ticker.TickNow(now) }

// NotifyPortFree implements sim.Component.
func (e *Engine) NotifyPortFree(now sim.Time, _ *sim.Port) { e.ticker.TickNow(now) }

// retryTimeoutEvent fires when a guarded request has waited long enough for
// its response. The attempt number pins the event to one transmission: a
// retransmission in the meantime (e.g. NACK-triggered) bumps the pending
// entry's attempt count, turning the old timeout into a no-op.
type retryTimeoutEvent struct {
	sim.EventBase
	id      uint64
	attempt int
	write   bool
}

// Handle implements sim.Handler.
func (e *Engine) Handle(ev sim.Event) error {
	switch evt := ev.(type) {
	case *sim.TickEvent:
		return e.tick(ev.Time())
	case retryTimeoutEvent:
		return e.handleTimeout(ev.Time(), evt)
	default:
		return fmt.Errorf("%s: unexpected event %T", e.Name(), ev)
	}
}

func (e *Engine) tick(now sim.Time) error {
	e.drainOutQueue(now)
	for i := 0; i < 8; i++ {
		progress := false
		if msg := e.ToL1.Retrieve(now); msg != nil {
			if err := e.handleLocal(now, msg); err != nil {
				return err
			}
			progress = true
		}
		if msg := e.ToFabric.Retrieve(now); msg != nil {
			if err := e.handleWire(now, msg); err != nil {
				return err
			}
			progress = true
		}
		if msg := e.ToL2.Retrieve(now); msg != nil {
			if err := e.handleL2Response(now, msg); err != nil {
				return err
			}
			progress = true
		}
		if !progress {
			break
		}
	}
	if e.ToL1.Buffered() > 0 || e.ToFabric.Buffered() > 0 || e.ToL2.Buffered() > 0 {
		e.ticker.TickLater(now)
	}
	return nil
}

func (e *Engine) drainOutQueue(now sim.Time) {
	for e.outQueue.Len() > 0 {
		if !e.ToFabric.Send(now, e.outQueue.Front()) {
			return // fabric output buffer full; retry on NotifyPortFree
		}
		e.outQueue.Pop()
	}
}

// handleLocal processes a request from this GPU's L1s destined for a remote
// GPU.
func (e *Engine) handleLocal(now sim.Time, msg sim.Msg) error {
	switch req := msg.(type) {
	case *mem.ReadReq:
		owner := e.OwnerOf(req.Addr)
		wire := &ReadReq{Addr: req.Addr, N: req.N}
		wire.Src, wire.Dst = e.ToFabric, e.RemotePort(owner)
		wire.Bytes = ReadReqHeaderBytes
		e.part.AssignMsgID(wire)
		t := e.newTxn(remoteRead)
		t.readReq, t.wireRead, t.issued, t.attempts = req, wire, now, 1
		e.pendingReads[wire.ID] = t
		e.ReadsSent++
		e.Rec.RemoteRead(e.GPU)
		e.Rec.Header(ReadReqHeaderBytes)
		e.outQueue.Push(wire)
		e.drainOutQueue(now)
		e.scheduleTimeout(now, wire.ID, 1, false)
		return nil
	case *mem.WriteReq:
		owner := e.OwnerOf(req.Addr)
		payload, d := e.compress(req.Data)
		wire := &WriteReq{Addr: req.Addr, Payload: payload}
		wire.Src, wire.Dst = e.ToFabric, e.RemotePort(owner)
		wire.Bytes = WriteReqHeaderBytes + payload.WireBytes()
		if e.Guard != nil {
			wire.Payload.CRC = PayloadCRC(wire.Payload)
			wire.Bytes += CRCTrailerBytes
		}
		e.part.AssignMsgID(wire)
		t := e.newTxn(remoteWrite)
		t.writeReq, t.wireWrite, t.attempts = req, wire, 1
		e.pendingWrites[wire.ID] = t
		e.WritesSent++
		e.Rec.RemoteWrite(e.GPU)
		e.Rec.Header(WriteReqHeaderBytes)
		if err := e.afterCodec(now, t, d.CompressionCycles); err != nil {
			return err
		}
		e.scheduleTimeout(now, wire.ID, 1, true)
		return nil
	default:
		return fmt.Errorf("%s: unexpected local message %T", e.Name(), msg)
	}
}

// compress runs the policy over a payload. Payloads that are not a whole
// cache line bypass the codecs (they cannot be encoded by the line-based
// algorithms) and ship raw.
func (e *Engine) compress(data []byte) (Payload, core.Decision) {
	if len(data) != comp.LineSize || e.Policy == nil {
		d := core.Decision{Alg: comp.None}
		p := Payload{Alg: comp.None, Raw: data, RawLen: len(data)}
		if e.Policy != nil {
			// Still record the transfer so traffic accounting is complete.
			e.Rec.Payload(data, core.Decision{Alg: comp.None, Enc: comp.Encoded{
				Alg: comp.None, Bits: len(data) * 8, Data: data, Uncompressed: true,
			}})
		}
		return p, d
	}
	if obs, ok := e.Policy.(core.CongestionObserver); ok {
		// Feed the dynamic-λ extension its local congestion signal: the
		// depth of this engine's fabric output queue.
		obs.ObserveCongestion(e.outQueue.Len())
	}
	d := e.Policy.Process(data)
	e.Rec.Payload(data, d)
	if d.Alg == comp.None {
		return Payload{Alg: comp.None, Raw: d.Enc.Data, RawLen: len(data)}, d
	}
	return Payload{Alg: d.Alg, Enc: d.Enc, RawLen: len(data)}, d
}

// handleWire processes a message arriving from the fabric.
func (e *Engine) handleWire(now sim.Time, msg sim.Msg) error {
	switch wire := msg.(type) {
	case *ReadReq:
		// A remote GPU wants our data: forward into the local L2.
		e.ReadsServed++
		local := e.pool.NewReadReq(e.ToL2, e.L2Router(wire.Addr), wire.Addr, wire.N)
		e.part.AssignMsgID(local)
		t := e.newTxn(servedRead)
		t.wireRead = wire
		e.serviceReads[local.ID] = t
		if !e.ToL2.Send(now, local) {
			return fmt.Errorf("%s: L2 rejected forwarded read", e.Name())
		}
		return nil
	case *WriteReq:
		if e.Guard != nil && PayloadCRC(wire.Payload) != wire.Payload.CRC {
			// Reject the corrupt payload; the writer retransmits on NACK
			// (or, failing that, on timeout) and attributes the failure to
			// the codec named in the header.
			e.CRCErrors++
			e.sendNACK(now, wire.Meta().Src, wire.ID, wire.Payload.Alg)
			return nil
		}
		// Decompress (if needed), then forward the write into local L2.
		e.WritesServed++
		t := e.newTxn(servedWrite)
		t.wireWrite = wire
		return e.afterCodec(now, t, decompressionCycles(wire.Payload.Alg))
	case *DataReady:
		// Response to one of our outgoing reads.
		t, ok := e.pendingReads[wire.RspTo]
		if !ok {
			if e.Guard != nil {
				// Duplicate response: a timeout retransmitted the request
				// and both replies arrived. The first one won.
				e.StaleDrops++
				return nil
			}
			return fmt.Errorf("%s: DataReady for unknown request %d", e.Name(), wire.RspTo)
		}
		if e.Guard != nil && PayloadCRC(wire.Payload) != wire.Payload.CRC {
			// Corrupt response: discard it, tell the responder (which
			// compressed the payload) so it can attribute the failure, and
			// retransmit our request.
			e.CRCErrors++
			e.sendNACK(now, wire.Meta().Src, wire.RspTo, wire.Payload.Alg)
			return e.retransmitRead(now, wire.RspTo)
		}
		delete(e.pendingReads, wire.RspTo)
		t.rsp = wire
		return e.afterCodec(now, t, decompressionCycles(wire.Payload.Alg))
	case *WriteACK:
		t, ok := e.pendingWrites[wire.RspTo]
		if !ok {
			if e.Guard != nil {
				e.StaleDrops++
				return nil
			}
			return fmt.Errorf("%s: WriteACK for unknown request %d", e.Name(), wire.RspTo)
		}
		delete(e.pendingWrites, wire.RspTo)
		if e.Guard != nil && t.wireWrite.Payload.Alg != comp.None {
			// A compressed write completed cleanly: reset the controller's
			// consecutive-failure count.
			e.observeIntegrity(true)
		}
		orig := t.writeReq
		ack := e.pool.NewWriteACK(e.ToL1, orig.Src, orig.ID, orig.Addr)
		e.part.AssignMsgID(ack)
		if !e.ToL1.Send(now, ack) {
			return fmt.Errorf("%s: L1 rejected ack", e.Name())
		}
		e.pool.Free(orig)
		e.retire(t)
		return nil
	case *NACK:
		if e.Guard == nil {
			return fmt.Errorf("%s: unexpected NACK without guard", e.Name())
		}
		if wire.Alg != comp.None {
			// The rejected payload was compressed by this engine's policy:
			// a codec-attributed integrity failure.
			e.observeIntegrity(false)
		}
		if t, ok := e.pendingWrites[wire.RspTo]; ok {
			return e.retransmitWrite(now, wire.RspTo, t)
		}
		// Read-path NACK: informational only — the requester already
		// retransmitted its ReadReq, and this engine kept no state for the
		// rejected DataReady.
		return nil
	default:
		return fmt.Errorf("%s: unexpected wire message %T", e.Name(), msg)
	}
}

// sendNACK rejects payload RspTo back to its sender, naming the Comp Alg of
// the rejected payload for failure attribution.
func (e *Engine) sendNACK(now sim.Time, dst *sim.Port, rspTo uint64, alg comp.Algorithm) {
	n := &NACK{RspTo: rspTo, Alg: alg}
	n.Src, n.Dst = e.ToFabric, dst
	n.Bytes = NACKHeaderBytes
	e.part.AssignMsgID(n)
	e.NACKsSent++
	e.outQueue.Push(n)
	e.drainOutQueue(now)
}

// observeIntegrity feeds the policy's integrity signal (when it cares).
func (e *Engine) observeIntegrity(ok bool) {
	if obs, has := e.Policy.(core.IntegrityObserver); has {
		obs.ObserveIntegrity(ok)
	}
}

// scheduleTimeout arms the retransmit timer for transmission `attempt` of a
// guarded request, with exponential backoff. No-op without a guard.
func (e *Engine) scheduleTimeout(now sim.Time, id uint64, attempt int, write bool) {
	if e.Guard == nil {
		return
	}
	shift := attempt - 1
	if shift > 10 {
		shift = 10 // backoff cap; MaxAttempts bounds attempts anyway
	}
	e.part.Schedule(retryTimeoutEvent{
		EventBase: sim.NewEventBase(now+e.Guard.TimeoutCycles<<shift, e),
		id:        id,
		attempt:   attempt,
		write:     write,
	})
}

// handleTimeout retransmits a request whose response never arrived. A stale
// timeout — the request completed, or a NACK already retransmitted it — is
// a no-op.
func (e *Engine) handleTimeout(now sim.Time, evt retryTimeoutEvent) error {
	if e.Guard == nil {
		return nil
	}
	if evt.write {
		t, ok := e.pendingWrites[evt.id]
		if !ok || t.attempts != evt.attempt {
			return nil
		}
		e.TimeoutsFired++
		return e.retransmitWrite(now, evt.id, t)
	}
	t, ok := e.pendingReads[evt.id]
	if !ok || t.attempts != evt.attempt {
		return nil
	}
	e.TimeoutsFired++
	return e.retransmitRead(now, evt.id)
}

// retransmitRead re-sends the wire ReadReq for a still-pending read.
// Retransmissions appear in the fabric byte counters and the guard stats,
// not in the logical traffic/* accounting: they are transport overhead, not
// new transfers.
func (e *Engine) retransmitRead(now sim.Time, id uint64) error {
	t := e.pendingReads[id]
	if t.attempts >= e.Guard.MaxAttempts {
		return fmt.Errorf("%s: remote read %#x: retry budget exhausted after %d attempts",
			e.Name(), t.wireRead.Addr, t.attempts)
	}
	t.attempts++
	e.Retries++
	e.recordRetrySpan(now, "retry:read", t.wireRead.Addr, t.attempts)
	e.outQueue.Push(t.wireRead)
	e.drainOutQueue(now)
	e.scheduleTimeout(now, id, t.attempts, false)
	return nil
}

// retransmitWrite re-sends the wire WriteReq for a still-pending write. The
// payload was already encoded and checksummed on first send, so the
// retransmission costs no additional compression latency.
func (e *Engine) retransmitWrite(now sim.Time, id uint64, t *txn) error {
	if t.attempts >= e.Guard.MaxAttempts {
		return fmt.Errorf("%s: remote write %#x: retry budget exhausted after %d attempts",
			e.Name(), t.wireWrite.Addr, t.attempts)
	}
	t.attempts++
	e.Retries++
	e.recordRetrySpan(now, "retry:write", t.wireWrite.Addr, t.attempts)
	e.outQueue.Push(t.wireWrite)
	e.drainOutQueue(now)
	e.scheduleTimeout(now, id, t.attempts, true)
	return nil
}

// recordRetrySpan marks one retransmission on the trace timeline.
func (e *Engine) recordRetrySpan(now sim.Time, name string, addr uint64, attempt int) {
	if e.Spans == nil {
		return
	}
	e.Spans.Record(trace.Span{
		Track: e.Name(), Name: fmt.Sprintf("%s @%#x #%d", name, addr, attempt),
		Cat: "fault", Start: now, End: now + 1,
	})
}

// newTxn takes a recycled transaction record, or builds one.
func (e *Engine) newTxn(kind txnKind) *txn {
	e.live++
	var t *txn
	if n := len(e.freeTxns); n > 0 {
		t = e.freeTxns[n-1]
		e.freeTxns[n-1] = nil
		e.freeTxns = e.freeTxns[:n-1]
	} else {
		t = &txn{e: e}
	}
	t.kind = kind
	return t
}

// retire marks t complete and recycles it, unless its codec tick is still
// pending (the tick recycles it then).
func (e *Engine) retire(t *txn) {
	t.done = true
	if !t.ticking {
		e.recycle(t)
	}
}

func (e *Engine) recycle(t *txn) {
	*t = txn{e: e}
	e.live--
	e.freeTxns = append(e.freeTxns, t)
}

// Outstanding returns the number of transaction records in use: remote
// requests awaiting their response, served requests awaiting the local
// L2, and payloads inside the codec latency.
func (e *Engine) Outstanding() int { return e.live }

// afterCodec runs t's codec step once cycles of codec latency have passed:
// at once when there are none, otherwise from a tick on t at now+cycles.
func (e *Engine) afterCodec(now sim.Time, t *txn, cycles int) error {
	if cycles <= 0 {
		return e.codecDone(now, t)
	}
	t.ticking = true
	e.part.ScheduleTick(now+sim.Time(cycles), t)
	return nil
}

// codecDone finishes t's codec step: a compressed wire message enters the
// output queue, a decompressed payload is forwarded to the local L1 or L2.
func (e *Engine) codecDone(now sim.Time, t *txn) error {
	switch t.kind {
	case remoteRead:
		data, err := t.rsp.Payload.Decode()
		if err != nil {
			return fmt.Errorf("%s: read payload: %w", e.Name(), err)
		}
		e.ReadLatency.Add(float64(now - t.issued))
		orig := t.readReq
		rsp := e.pool.NewDataReady(e.ToL1, orig.Src, orig.ID, orig.Addr, data)
		e.part.AssignMsgID(rsp)
		if !e.ToL1.Send(now, rsp) {
			return fmt.Errorf("%s: L1 rejected response", e.Name())
		}
		e.pool.Free(orig)
		e.retire(t)
	case remoteWrite:
		e.outQueue.Push(t.wireWrite)
		e.drainOutQueue(now)
		if t.done {
			// The write completed while its send was pending.
			e.recycle(t)
		}
	case servedRead:
		e.outQueue.Push(t.out)
		e.drainOutQueue(now)
		e.retire(t)
	case servedWrite:
		wire := t.wireWrite
		data, err := wire.Payload.Decode()
		if err != nil {
			return fmt.Errorf("%s: write payload: %w", e.Name(), err)
		}
		local := e.pool.NewWriteReq(e.ToL2, e.L2Router(wire.Addr), wire.Addr, data)
		e.part.AssignMsgID(local)
		e.serviceWrites[local.ID] = t
		if !e.ToL2.Send(now, local) {
			return fmt.Errorf("%s: L2 rejected forwarded write", e.Name())
		}
	}
	return nil
}

func decompressionCycles(alg comp.Algorithm) int {
	return comp.CostOf(alg).DecompressionCycles
}

// handleL2Response turns local L2 responses into wire responses for the
// requesting GPU.
func (e *Engine) handleL2Response(now sim.Time, msg sim.Msg) error {
	switch rsp := msg.(type) {
	case *mem.DataReady:
		t, ok := e.serviceReads[rsp.RspTo]
		if !ok {
			return fmt.Errorf("%s: L2 data for unknown request %d", e.Name(), rsp.RspTo)
		}
		delete(e.serviceReads, rsp.RspTo)
		payload, d := e.compress(rsp.Data)
		wireReq := t.wireRead
		out := &DataReady{RspTo: wireReq.ID, Addr: rsp.Addr, Payload: payload}
		e.pool.Free(rsp)
		out.Src, out.Dst = e.ToFabric, wireReq.Src
		out.Bytes = DataReadyHeaderBytes + payload.WireBytes()
		if e.Guard != nil {
			out.Payload.CRC = PayloadCRC(out.Payload)
			out.Bytes += CRCTrailerBytes
		}
		e.part.AssignMsgID(out)
		e.Rec.Header(DataReadyHeaderBytes)
		t.out = out
		return e.afterCodec(now, t, d.CompressionCycles)
	case *mem.WriteACK:
		t, ok := e.serviceWrites[rsp.RspTo]
		if !ok {
			return fmt.Errorf("%s: L2 ack for unknown request %d", e.Name(), rsp.RspTo)
		}
		delete(e.serviceWrites, rsp.RspTo)
		e.pool.Free(rsp)
		wireReq := t.wireWrite
		out := &WriteACK{RspTo: wireReq.ID}
		out.Src, out.Dst = e.ToFabric, wireReq.Src
		out.Bytes = WriteACKHeaderBytes
		e.part.AssignMsgID(out)
		e.Rec.Header(WriteACKHeaderBytes)
		e.outQueue.Push(out)
		e.drainOutQueue(now)
		e.retire(t)
		return nil
	default:
		return fmt.Errorf("%s: unexpected L2 message %T", e.Name(), msg)
	}
}
