// Package sim provides a deterministic discrete-event simulation kernel in
// the style of MGSim: an event engine, components that handle events, ports
// with bounded buffers, and connections that move messages between ports
// with configurable timing.
//
// Time is measured in integer cycles. The multi-GPU platform built on top of
// this package runs everything in a single 1 GHz clock domain, matching the
// configuration in the paper (Table VII), so one cycle corresponds to 1 ns.
//
// # Conservative parallel execution
//
// The engine is split into partitions (one per GPU plus a hub for the shared
// fabric in the platform's use). Each partition owns a private event queue
// and clock; components belong to exactly one partition and schedule only on
// it. Cross-partition traffic travels over Remote links that declare a
// minimum latency at construction. Run advances all partitions window by
// window; cross traffic parks in per-link outboxes until the window barrier
// merges it into the destination queues.
//
// Window widths adapt to traffic rather than tracking simulated time: a
// partition whose next event is at time h cannot emit anything that lands
// before h plus its cheapest outgoing link, so the window limit is the
// minimum of those bounds over every partition with pending work — idle and
// locally-busy stretches execute in one window instead of one window per
// minimum link latency. When a single partition has work under the limit the
// engine elides the barrier entirely and runs it inline, widening the window
// dynamically as far as the other partitions' queued events (and the lone
// partition's own emissions, reflected through the link graph) allow.
//
// Event order inside a partition is the (time, seq) total order. Sequence
// numbers are partition-striped and assigned by the emitting partition — for
// cross-partition events, stamped by the source at emission time — so the
// order is a pure function of simulation content, never of window placement,
// goroutine scheduling, or the core count: a run's observable behaviour is
// byte-identical for any WithCores value and either window policy.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"mgpucompress/internal/metrics"
)

// Time is a point in simulated time, in cycles.
type Time uint64

// TimeInf is a sentinel for "never".
const TimeInf Time = math.MaxUint64

// Event is something that happens at a point in simulated time. Events are
// totally ordered by (time, secondary ID) so simulation runs are
// deterministic regardless of scheduling order.
type Event interface {
	// Time returns when the event happens.
	Time() Time
	// Handler returns the handler that should process the event.
	Handler() Handler
}

// Handler processes events.
type Handler interface {
	Handle(e Event) error
}

// EventBase provides a canonical Event implementation to embed in concrete
// event types.
type EventBase struct {
	EvtTime    Time
	EvtHandler Handler
}

// NewEventBase builds an EventBase for the given time and handler.
func NewEventBase(t Time, h Handler) EventBase {
	return EventBase{EvtTime: t, EvtHandler: h}
}

// Time returns when the event happens.
func (e EventBase) Time() Time { return e.EvtTime }

// Handler returns the handler that processes the event.
func (e EventBase) Handler() Handler { return e.EvtHandler }

// Option configures an Engine at construction.
type Option func(*Engine)

// WithPartitions splits the engine into n independently clocked event queues
// (default 1). Components are built against one Partition each; traffic
// between partitions must travel over Remote links (see Engine.Link).
func WithPartitions(n int) Option {
	if n < 1 {
		panic("sim: WithPartitions needs at least 1 partition")
	}
	return func(e *Engine) { e.npart = n }
}

// WithCores sets how many OS-level workers advance partitions concurrently
// inside each lookahead window (default 1, i.e. fully serial execution).
// Results are byte-identical for any value.
func WithCores(n int) Option {
	if n < 1 {
		panic("sim: WithCores needs at least 1 core")
	}
	return func(e *Engine) { e.cores = n }
}

// WithLookahead pins every window to a fixed width instead of the default
// adaptive widening, reproducing the classic conservative schedule whose
// barrier count tracks simulated time. A value larger than the minimum
// cross-partition link latency would break conservative safety, so Run
// panics on it; smaller values are safe (they only add barriers). Results
// are byte-identical between fixed and adaptive windows — this option only
// exists as a baseline for benchmarking the window scheduler.
func WithLookahead(t Time) Option {
	if t == 0 {
		panic("sim: WithLookahead needs a nonzero window")
	}
	return func(e *Engine) { e.explicitLA = t }
}

// Engine drives the simulation: it owns the partitions, the cross-partition
// links, and the windowed run loop. Scheduling happens on Partitions, never
// on the Engine itself. Run/RunUntil must be called from host code (outside
// event handlers), one call at a time.
type Engine struct {
	parts   []*Partition
	remotes []*Remote

	npart      int
	cores      int
	explicitLA Time
	maxTime    Time
	running    bool

	// Window-scheduling inputs, rebuilt by prepare at the start of each Run
	// from the link graph (host code may add links between runs).
	fixedLA Time        // nonzero: fixed window width (WithLookahead)
	out     [][]*Remote // cross-partition links (src != dst), by source index
	dist    [][]Time    // all-pairs min cross-partition path latency (closure)

	// Window-scheduling telemetry. All counts derive from the deterministic
	// job list — never from worker scheduling — so snapshots stay
	// byte-identical across core counts.
	windows     uint64
	barrierWins uint64
	serialWins  uint64
	crossMsgs   uint64
	evw         metrics.Distribution

	// Window-barrier state for the spinning worker pool. A macro run still
	// crosses many window barriers, so workers spin on the epoch counter
	// between windows instead of parking on a channel: a futex wake/sleep
	// round trip per window would cost more than the window's own work. jobs
	// and limit are plain fields published by the epoch increment and fenced
	// off by the per-worker acks, which the coordinator waits on before
	// touching them again. The pool starts lazily at the first multi-partition
	// window and parks again (stopWorkers) after a sustained single-partition
	// phase, so serial stretches burn no cores spinning.
	jobs         []*Partition
	limit        Time
	epoch        atomic.Int64
	ticket       atomic.Int64
	stop         atomic.Bool
	acks         []atomic.Int64
	workers      sync.WaitGroup
	workersUp    bool
	consecSerial int
}

// parkAfter is how many consecutive single-partition windows the engine
// tolerates before stopping the spinning workers. Low enough that a long
// serial phase (kernel launch, drained tail) frees the cores quickly, high
// enough that alternating phases do not thrash goroutine creation.
const parkAfter = 128

// NewEngine creates an engine at time 0. With no options it has a single
// partition and runs serially, which reproduces the classic single-queue
// discrete-event kernel exactly.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{npart: 1, cores: 1, maxTime: TimeInf}
	for _, opt := range opts {
		opt(e)
	}
	e.parts = make([]*Partition, e.npart)
	for i := range e.parts {
		e.parts[i] = &Partition{eng: e, idx: i}
	}
	return e
}

// Partition returns partition i.
func (e *Engine) Partition(i int) *Partition { return e.parts[i] }

// Partitions returns the number of partitions.
func (e *Engine) Partitions() int { return len(e.parts) }

// Link declares a scheduling channel from src to dst whose events always run
// at least minLatency cycles after the source's current time. Cross-partition
// links (src != dst) bound how soon one partition can disturb another, which
// is what the window scheduler's adaptive limits are computed from. A link
// with src == dst is a convenience for components wired symmetrically against
// local and remote peers; it enforces the same latency floor but adds no
// synchronization.
func (e *Engine) Link(src, dst *Partition, minLatency Time) *Remote {
	if src.eng != e || dst.eng != e {
		panic("sim: Link across engines")
	}
	if src != dst && minLatency == 0 {
		panic("sim: cross-partition link needs a nonzero minimum latency")
	}
	r := &Remote{src: src, dst: dst, latency: minLatency}
	e.remotes = append(e.remotes, r)
	return r
}

// Now returns the current simulated time: the furthest any partition has
// advanced. With one partition this is exactly the classic engine clock.
func (e *Engine) Now() Time {
	var now Time
	for _, p := range e.parts {
		if p.now > now {
			now = p.now
		}
	}
	return now
}

// EventCount returns the number of events handled so far, over all
// partitions.
func (e *Engine) EventCount() uint64 {
	var n uint64
	for _, p := range e.parts {
		n += p.handled
	}
	return n
}

// Pending returns the number of events waiting across all partitions.
func (e *Engine) Pending() int {
	n := 0
	for _, p := range e.parts {
		n += p.queue.len()
	}
	return n
}

// SetMaxTime makes Run stop once simulated time would exceed the deadline.
// Events at exactly the deadline still run.
func (e *Engine) SetMaxTime(t Time) { e.maxTime = t }

// prepare rebuilds the window scheduler's link-graph summaries: the
// cross-partition links grouped by source (out) and the all-pairs
// shortest-path closure over them (dist), both with saturating arithmetic. dist bounds how soon any
// causal chain starting at one partition can reach another, which is what
// lets a lone partition run far ahead of the fixed window. K is small (GPU
// count plus one), so the Floyd–Warshall closure is negligible next to a
// single window's work.
func (e *Engine) prepare() {
	k := len(e.parts)
	derived := TimeInf
	if len(e.dist) != k {
		e.dist = make([][]Time, k)
		e.out = make([][]*Remote, k)
		for i := range e.dist {
			e.dist[i] = make([]Time, k)
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			e.dist[i][j] = TimeInf
		}
		e.dist[i][i] = 0
		e.out[i] = e.out[i][:0]
	}
	for _, r := range e.remotes {
		if r.src == r.dst {
			continue
		}
		e.out[r.src.idx] = append(e.out[r.src.idx], r)
		if r.latency < derived {
			derived = r.latency
		}
		if r.latency < e.dist[r.src.idx][r.dst.idx] {
			e.dist[r.src.idx][r.dst.idx] = r.latency
		}
	}
	for m := 0; m < k; m++ {
		for i := 0; i < k; i++ {
			if e.dist[i][m] == TimeInf {
				continue
			}
			for j := 0; j < k; j++ {
				if via := satAdd(e.dist[i][m], e.dist[m][j]); via < e.dist[i][j] {
					e.dist[i][j] = via
				}
			}
		}
	}
	e.fixedLA = 0
	if e.explicitLA != 0 {
		if e.explicitLA > derived {
			panic(fmt.Sprintf("sim: explicit lookahead %d exceeds minimum link latency %d", e.explicitLA, derived))
		}
		e.fixedLA = e.explicitLA
	}
	e.consecSerial = 0
}

// Run processes events in time order until every queue drains, a partition
// pauses, or the max-time deadline passes. It returns the first handler
// error in the global (time, seq) order. Events past the deadline stay
// queued so a later Run with a larger deadline can resume.
func (e *Engine) Run() error {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	for _, p := range e.parts {
		p.stopped = false
		p.err = nil
	}
	e.running = true
	defer func() { e.running = false }()
	e.prepare()
	defer e.stopWorkers()

	// Only the window's jobs dispatch, so only they can emit cross traffic,
	// fail or pause: the barrier looks at e.jobs, never at every partition.
	for {
		limit, ok := e.nextWindow()
		if !ok {
			return nil
		}
		e.runWindow(limit)
		e.drainRemotes()
		if err := e.windowError(); err != nil {
			return err
		}
		for _, p := range e.jobs {
			if p.stopped {
				return nil
			}
		}
	}
}

// RunUntil runs events up to and including time t.
func (e *Engine) RunUntil(t Time) error {
	saved := e.maxTime
	e.maxTime = t
	err := e.Run()
	e.maxTime = saved
	return err
}

// nextWindow computes the exclusive upper bound of the next window, or
// reports false when nothing runnable remains under the deadline.
//
// Adaptive rule (default): the window is bounded per cross link, not per
// simulated cycle. A link whose source's head event is at time h carries
// nothing that arrives before h plus the link latency — the source is asleep
// until h — and never anything before the link's next-send bound, which the
// owning component may raise when its committed state rules out earlier
// traffic (a fabric bus mid-transfer, for example). The window extends to
// the minimum of those per-link bounds; events created inside the window
// land at or past the limit, never inside it. Every bound is at least
// head+latency, so the adaptive window is never narrower than the fixed
// one, and it grows without bound while traffic stays local. Links out of
// an empty partition bound nothing and are skipped with their source.
func (e *Engine) nextWindow() (Time, bool) {
	t, limit := TimeInf, TimeInf
	for i, p := range e.parts {
		h := p.queue.headTime()
		if h == TimeInf {
			continue
		}
		if h < t {
			t = h
		}
		for _, r := range e.out[i] {
			if b := sendBound(r, h); b < limit {
				limit = b
			}
		}
	}
	if t == TimeInf || t > e.maxTime {
		return 0, false
	}
	if e.fixedLA != 0 {
		limit = satAdd(t, e.fixedLA)
	}
	if e.maxTime != TimeInf && limit > e.maxTime {
		limit = e.maxTime + 1 // events at exactly the deadline still run
	}
	return limit, true
}

// extraWorkers returns how many worker goroutines the pool holds when
// running, on top of the coordinator itself (0 = run windows inline on the
// caller). The coordinator always participates in window work, so cores=2
// means one extra worker.
func (e *Engine) extraWorkers() int {
	if e.cores <= 1 || len(e.parts) == 1 {
		return 0
	}
	n := e.cores
	if n > len(e.parts) {
		n = len(e.parts)
	}
	return n - 1
}

// startWorkers spins up the worker pool. Called lazily at the first window
// that actually has concurrent work, and again after stopWorkers parked the
// pool through a serial phase.
func (e *Engine) startWorkers() {
	n := e.extraWorkers()
	if n <= 0 || e.workersUp {
		return
	}
	e.stop.Store(false)
	e.acks = make([]atomic.Int64, n)
	base := e.epoch.Load()
	for i := 0; i < n; i++ {
		e.acks[i].Store(base)
		e.workers.Add(1)
		go e.worker(i, base)
	}
	e.workersUp = true
}

// stopWorkers parks the pool: workers observe the stop flag on the next
// epoch bump and exit. Only called between windows (and at Run exit), when
// every worker has already acked and quiesced.
func (e *Engine) stopWorkers() {
	if !e.workersUp {
		return
	}
	e.stop.Store(true)
	e.epoch.Add(1) // release spinners so they observe stop
	e.workers.Wait()
	e.acks = nil
	e.workersUp = false
}

// runWindow advances every partition with work under the limit. Partitions
// never touch each other's state inside a window (cross traffic sits in
// Remote outboxes until the barrier), so dispatch order — and the worker
// count — cannot influence results.
//
// Windows with a single active partition elide the barrier entirely: the
// lone partition runs inline on the coordinator under a dynamically widened
// limit (see wideLimit), and a sustained single-partition phase parks the
// worker pool so serial stretches burn no cores spinning.
func (e *Engine) runWindow(limit Time) {
	e.jobs = e.jobs[:0]
	for _, p := range e.parts {
		if p.queue.headTime() < limit {
			e.jobs = append(e.jobs, p)
		}
	}
	e.windows++
	before := e.jobEvents()
	if len(e.jobs) == 1 {
		e.serialWins++
		e.consecSerial++
		p := e.jobs[0]
		if e.fixedLA == 0 {
			limit = e.wideLimit(p, limit)
			p.dynamic = true
		}
		p.window(limit)
		p.dynamic = false
		if e.consecSerial >= parkAfter {
			e.stopWorkers()
		}
	} else {
		e.barrierWins++
		e.consecSerial = 0
		e.runJobs(limit)
	}
	e.evw.Observe(float64(e.jobEvents() - before))
}

// jobEvents returns the events handled so far by the window's jobs, the only
// partitions that dispatch in it.
func (e *Engine) jobEvents() uint64 {
	var n uint64
	for _, p := range e.jobs {
		n += p.handled
	}
	return n
}

// runJobs executes a multi-partition window, starting the worker pool on
// demand and falling back to inline execution when there is none (cores=1,
// or a single partition).
func (e *Engine) runJobs(limit Time) {
	if !e.workersUp {
		e.startWorkers()
	}
	if !e.workersUp {
		for _, p := range e.jobs {
			p.window(limit)
		}
		return
	}
	// Largest first: the deepest queue (usually the hub's) is claimed first,
	// so it does not start last and run alone after the others finish.
	deep := 0
	for i, p := range e.jobs {
		if p.queue.len() > e.jobs[deep].queue.len() {
			deep = i
		}
	}
	e.jobs[0], e.jobs[deep] = e.jobs[deep], e.jobs[0]
	e.limit = limit
	e.ticket.Store(0)
	ep := e.epoch.Add(1) // publishes jobs/limit to the spinning workers
	e.windowWork()
	// Wait until every worker has quiesced for this epoch. A worker acks only
	// after its last ticket claim, so all jobs are both claimed and finished
	// once the coordinator's own windowWork returns and all acks match.
	for i := range e.acks {
		for spins := 0; e.acks[i].Load() != ep; spins++ {
			if spins > spinBudget {
				runtime.Gosched()
			}
		}
	}
}

// wideLimit returns the dynamic window bound for a lone active partition p:
// the earliest time any other partition's queued work could reach p through
// the link graph. The first hop of every such chain honours both the source's
// head event and the link's next-send bound; the rest of the chain is bounded
// by the latency closure. While p runs, its own emissions tighten the bound
// further (Remote.Schedule collapses p's curLimit through the same closure),
// so nothing p does can be disturbed retroactively. With no other pending
// work and no emissions, p simply runs to completion in one window.
func (e *Engine) wideLimit(p *Partition, limit Time) Time {
	w := TimeInf
	for i, src := range e.parts {
		h := src.queue.headTime()
		if src == p || h == TimeInf {
			continue
		}
		for _, r := range e.out[i] {
			if b := satAdd(sendBound(r, h), e.dist[r.dst.idx][p.idx]); b < w {
				w = b
			}
		}
	}
	if e.maxTime != TimeInf && w > e.maxTime {
		w = e.maxTime + 1
	}
	if w < limit {
		return limit
	}
	return w
}

// sendBound is the earliest time link r can deliver anything while its
// source's head event is at h: h plus the latency, or the link's next-send
// bound when that is later.
func sendBound(r *Remote, h Time) Time {
	if b := satAdd(h, r.latency); b > r.nextSend {
		return b
	}
	return r.nextSend
}

// spinBudget is how many times a barrier loop polls before yielding the OS
// thread. Windows are microseconds apart, so a short busy wait almost always
// wins; the Gosched fallback keeps GOMAXPROCS=1 runs live.
const spinBudget = 256

// windowWork claims partitions off the shared ticket until the window's job
// list is exhausted. Claim order is irrelevant to results: partitions only
// touch their own state inside a window.
func (e *Engine) windowWork() {
	for {
		i := e.ticket.Add(1) - 1
		if i >= int64(len(e.jobs)) {
			return
		}
		e.jobs[i].window(e.limit)
	}
}

// worker spins between window barriers: it waits for the coordinator to bump
// the epoch, grabs partitions off the ticket, then acks the epoch to signal
// it will no longer touch the job list.
func (e *Engine) worker(idx int, last int64) {
	defer e.workers.Done()
	for {
		ep := e.epoch.Load()
		if ep == last {
			for spins := 0; e.epoch.Load() == last; spins++ {
				if spins > spinBudget {
					runtime.Gosched()
				}
			}
			continue
		}
		if e.stop.Load() {
			return
		}
		last = ep
		e.windowWork()
		e.acks[idx].Store(ep)
	}
}

// drainRemotes merges the window's cross-partition batches into the
// destination queues; RemoteLine payloads move from their source-side
// outbox into the destination-owned delay line here, and only here. Only
// links that actually carried traffic are visited
// (each source partition keeps a dirty-link list), entries arrive already
// stamped with source-assigned sequence numbers, and the emptied buffers
// return to the source partition's pool for the next window. Merge order is
// irrelevant to results — the (time, seq) order was fixed at emission — but
// stays deterministic anyway (job then dirty order).
func (e *Engine) drainRemotes() {
	for _, p := range e.jobs {
		if len(p.dirty) == 0 {
			continue
		}
		for di, r := range p.dirty {
			buf := r.buf
			r.buf = nil
			e.crossMsgs += uint64(len(buf))
			for i := range buf {
				if en := &buf[i]; en.line != nil {
					en.line.land(en.time, en.seq)
				} else {
					r.dst.enqueueStamped(en.time, en.seq, en.evt, nil)
				}
				buf[i] = remoteEntry{} // release the Event and line references
			}
			p.pool = append(p.pool, buf[:0])
			p.dirty[di] = nil
		}
		p.dirty = p.dirty[:0]
	}
}

// windowError picks the earliest failure of the last window in the global
// (time, seq) order, matching what a fully serial run would have hit first.
func (e *Engine) windowError() error {
	var best *Partition
	for _, p := range e.jobs {
		if p.err == nil {
			continue
		}
		if best == nil || p.errTime < best.errTime ||
			(p.errTime == best.errTime && p.errSeq < best.errSeq) {
			best = p
		}
	}
	if best == nil {
		return nil
	}
	return best.err
}

// RegisterMetrics exposes the engine's event-loop and window-scheduler
// counters under prefix (conventionally "sim"). The closures aggregate over
// partitions at snapshot time, so a snapshot always reflects the state at
// snapshot time. Every value is a pure function of simulation content — the
// window counts derive from the deterministic job lists, never from worker
// scheduling — so snapshots are byte-identical across core counts.
func (e *Engine) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"/cycles", func() uint64 { return uint64(e.Now()) })
	reg.CounterFunc(prefix+"/events_handled", func() uint64 { return e.EventCount() })
	reg.CounterFunc(prefix+"/events_scheduled", func() uint64 {
		var n uint64
		for _, p := range e.parts {
			n += p.scheduled
		}
		return n
	})
	reg.GaugeFunc(prefix+"/events_pending", func() float64 { return float64(e.Pending()) })
	reg.CounterFunc(prefix+"/windows", func() uint64 { return e.windows })
	reg.CounterFunc(prefix+"/remote_msgs", func() uint64 { return e.crossMsgs })
	reg.CounterFunc(prefix+"/barrier_spins", func() uint64 { return e.barrierWins })
	reg.CounterFunc(prefix+"/serial_fallback_windows", func() uint64 { return e.serialWins })
	reg.DistributionFunc(prefix+"/events_per_window", e.evw.Value)
}
