package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestFIFOMatchesSliceReference drives a FIFO and a plain slice with the
// same random interleaving of pushes, pops and partial drains, across many
// wraparounds, and checks they always agree on length, order and contents.
func TestFIFOMatchesSliceReference(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var q FIFO[int]
		var ref []int
		next := 0
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				for k := rng.Intn(4) + 1; k > 0; k-- {
					q.Push(next)
					ref = append(ref, next)
					next++
				}
			case op < 9:
				for k := rng.Intn(4) + 1; k > 0 && len(ref) > 0; k-- {
					if got, want := q.Pop(), ref[0]; got != want {
						t.Fatalf("trial %d step %d: Pop = %d, want %d", trial, step, got, want)
					}
					ref = ref[1:]
				}
			default:
				for k := len(ref) / 2; k > 0; k-- { // partial drain
					q.Pop()
					ref = ref[1:]
				}
			}
			if q.Len() != len(ref) {
				t.Fatalf("trial %d step %d: Len = %d, want %d", trial, step, q.Len(), len(ref))
			}
			if got := fifoItems(&q); !reflect.DeepEqual(got, ref) && len(ref) > 0 {
				t.Fatalf("trial %d step %d: contents %v, want %v", trial, step, got, ref)
			}
			if len(ref) > 0 && q.Front() != ref[0] {
				t.Fatalf("trial %d step %d: Front = %d, want %d", trial, step, q.Front(), ref[0])
			}
		}
	}
}

// TestPortMatchesSliceReference is the Port-level form of the FIFO property:
// Deliver/Retrieve order, Buffered and UsedBytes match a slice reference,
// and a port that never fully drains keeps its buffer bounded by its peak
// occupancy however long it runs.
func TestPortMatchesSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := newStubComponent("c")
	p := NewPort(c, "c.in", 0)
	var ref []*testMsg
	used, peak := 0, 0
	p.Deliver(0, &testMsg{MsgMeta: MsgMeta{Bytes: 1}, payload: -1}) // never drained below one
	ref = append(ref, &testMsg{MsgMeta: MsgMeta{Bytes: 1}, payload: -1})
	used = 1
	for step := 0; step < 100000; step++ {
		if rng.Intn(2) == 0 && len(ref) < 40 {
			m := &testMsg{MsgMeta: MsgMeta{Bytes: rng.Intn(64) + 1}, payload: step}
			p.Deliver(Time(step), m)
			ref = append(ref, m)
			used += m.Bytes
		} else if len(ref) > 1 {
			got := p.Retrieve(Time(step)).(*testMsg)
			if got.payload != ref[0].payload {
				t.Fatalf("step %d: Retrieve payload %d, want %d", step, got.payload, ref[0].payload)
			}
			used -= ref[0].Bytes
			ref = ref[1:]
		}
		if len(ref) > peak {
			peak = len(ref)
		}
		if p.Buffered() != len(ref) || p.UsedBytes() != used {
			t.Fatalf("step %d: Buffered/UsedBytes = %d/%d, want %d/%d",
				step, p.Buffered(), p.UsedBytes(), len(ref), used)
		}
		if head := p.Peek().(*testMsg); head.payload != ref[0].payload {
			t.Fatalf("step %d: Peek payload %d, want %d", step, head.payload, ref[0].payload)
		}
	}
	if limit := 2 * peak; len(p.buf.buf) > limit {
		t.Errorf("port buffer capacity %d exceeds twice the peak occupancy %d", len(p.buf.buf), peak)
	}
}

// fifoItems lists a FIFO's contents front to back without popping.
func fifoItems[T any](q *FIFO[T]) []T {
	var out []T
	for i := 0; i < q.n; i++ {
		out = append(out, q.buf[(q.head+i)&(len(q.buf)-1)])
	}
	return out
}

// orderLog records the order in which items are dispatched.
type orderLog struct{ got []int }

type boxedItem struct {
	EventBase
	id  int
	log *orderLog
}

type boxedHandler struct{}

func (boxedHandler) Handle(e Event) error {
	b := e.(boxedItem)
	b.log.got = append(b.log.got, b.id)
	return nil
}

// TestDelayLineKeepsBoxedEventSlots is the byte-identity contract of the
// delay line: a random mix of boxed events and items on several delay
// lines (each with non-decreasing due times) dispatches in exactly the
// order an all-boxed run of the same schedule produces.
func TestDelayLineKeepsBoxedEventSlots(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		run := func(useLines bool) []int {
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			e := NewEngine()
			p := e.Partition(0)
			log := &orderLog{}
			const nLines = 3
			var lines [nLines]*DelayLine[int]
			var last [nLines]Time
			for i := range lines {
				lines[i] = NewDelayLine(p, func(_ Time, id int) error {
					log.got = append(log.got, id)
					return nil
				})
			}
			for id := 0; id < 400; id++ {
				if l := rng.Intn(nLines + 1); l < nLines {
					last[l] += Time(rng.Intn(3))
					if useLines {
						lines[l].Push(last[l], id)
					} else {
						p.Schedule(boxedItem{NewEventBase(last[l], boxedHandler{}), id, log})
					}
				} else {
					p.Schedule(boxedItem{NewEventBase(Time(rng.Intn(60)), boxedHandler{}), id, log})
				}
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			return log.got
		}
		boxed, lined := run(false), run(true)
		if len(boxed) != 400 || !reflect.DeepEqual(boxed, lined) {
			t.Fatalf("trial %d: delay-line dispatch order diverged from boxed events", trial)
		}
	}
}

// relay ticks every cycle, logging each tick, and forwards every tick
// across a partition boundary, either as a boxed event on the Remote or as
// an item on a RemoteLine over the same link. Each tick also schedules a
// local echo a few cycles ahead, so arrivals compete with local events
// queued in the same window for the same cycle. Arrivals are logged on the
// receiving side, so each partition's log interleaves its own events with
// incoming items in dispatch order.
type relay struct {
	part  *Partition
	out   *Remote
	line  *RemoteLine[int]
	log   *orderLog // this partition's dispatch log
	peer  *relay
	sent  int
	left  int
	think Time
	echo  Time
}

// echo logs a relay's local look-ahead event.
type echo struct {
	log *orderLog
	id  int
}

func (e *echo) Handle(Event) error {
	e.log.got = append(e.log.got, 10000+e.id)
	return nil
}

func (r *relay) Handle(e Event) error {
	if r.left == 0 {
		return nil
	}
	r.left--
	r.sent++
	id := r.part.Index()*1000 + r.sent
	r.log.got = append(r.log.got, -id)
	r.part.ScheduleTick(e.Time()+r.echo, &echo{log: r.log, id: id})
	t := e.Time() + r.out.MinLatency() + r.think
	if r.line != nil {
		r.line.Post(t, id)
	} else {
		r.out.Schedule(boxedItem{NewEventBase(t, boxedHandler{}), id, r.peer.log})
	}
	r.part.ScheduleTick(e.Time()+1, r)
	return nil
}

// TestRemoteLineKeepsBoxedEventSlots checks the cross-partition form: two
// partitions streaming to each other over RemoteLines dispatch every item
// at the slot a boxed Remote event would have taken — including its order
// against the receiver's own same-cycle events — for any core count.
func TestRemoteLineKeepsBoxedEventSlots(t *testing.T) {
	run := func(cores int, useLines bool) [2][]int {
		e := NewEngine(WithPartitions(2), WithCores(cores))
		a := &relay{part: e.Partition(0), log: &orderLog{}, left: 300, think: 2, echo: 5}
		b := &relay{part: e.Partition(1), log: &orderLog{}, left: 200, think: 4, echo: 5}
		a.out = e.Link(a.part, b.part, 3)
		b.out = e.Link(b.part, a.part, 2)
		a.peer, b.peer = b, a
		if useLines {
			a.line = NewRemoteLine(a.out, func(_ Time, id int) error {
				b.log.got = append(b.log.got, id)
				return nil
			})
			b.line = NewRemoteLine(b.out, func(_ Time, id int) error {
				a.log.got = append(a.log.got, id)
				return nil
			})
		}
		a.part.ScheduleTick(0, a)
		b.part.ScheduleTick(0, b)
		// Run b's sequence counter ahead of a's, so a's stamps sort before
		// b's same-cycle echoes even though they reach b's queue later.
		for i := 0; i < 50; i++ {
			b.part.ScheduleTick(0, &localChain{})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return [2][]int{a.log.got, b.log.got}
	}
	want := run(1, false)
	if n := len(want[0]) + len(want[1]); n != 1500 {
		t.Fatalf("boxed run dispatched %d events, want 1500", n)
	}
	for _, cores := range []int{1, 2} {
		if got := run(cores, true); !reflect.DeepEqual(got, want) {
			t.Errorf("cores=%d: remote-line dispatch order diverged from boxed events", cores)
		}
	}
}

// TestPortDeliverRetrieveAllocFree: a port in steady state moves messages
// without allocating.
func TestPortDeliverRetrieveAllocFree(t *testing.T) {
	p := NewPort(newStubComponent("c"), "c.in", 0)
	m := &testMsg{MsgMeta: MsgMeta{Bytes: 8}}
	for i := 0; i < 8; i++ {
		p.Deliver(0, m)
	}
	if n := testing.AllocsPerRun(1000, func() {
		p.Deliver(0, m)
		p.Retrieve(0)
	}); n != 0 {
		t.Errorf("Deliver+Retrieve allocates %v times per run, want 0", n)
	}
}

// TestDelayLinePushFireAllocFree: pushing an item and dispatching its tick
// allocates nothing once the line's ring has grown.
func TestDelayLinePushFireAllocFree(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	fired := 0
	line := NewDelayLine(p, func(Time, *testMsg) error {
		fired++
		return nil
	})
	m := &testMsg{}
	step := func() {
		line.Push(p.Now()+3, m)
		line.Push(p.Now()+3, m)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Errorf("delay-line push+fire allocates %v times per run, want 0", n)
	}
	if fired != 2*1002 {
		t.Errorf("fired %d items, want %d", fired, 2*1002)
	}
}

// poster posts one item on a RemoteLine each time it runs.
type poster struct {
	part *Partition
	line *RemoteLine[*testMsg]
	m    *testMsg
}

func (p *poster) Handle(e Event) error {
	p.line.Post(e.Time()+2, p.m)
	return nil
}

// TestRemoteLinePostAllocFree: a cross-partition post, its trip through the
// window barrier and its dispatch on the destination allocate nothing in
// steady state.
func TestRemoteLinePostAllocFree(t *testing.T) {
	e := NewEngine(WithPartitions(2))
	src, dst := e.Partition(0), e.Partition(1)
	fired := 0
	src2dst := e.Link(src, dst, 2)
	e.Link(dst, src, 2)
	ps := &poster{part: src, m: &testMsg{}}
	ps.line = NewRemoteLine(src2dst, func(Time, *testMsg) error {
		fired++
		return nil
	})
	step := func() {
		src.ScheduleTick(e.Now(), ps)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Errorf("remote-line post allocates %v times per run, want 0", n)
	}
	if fired != 1002 {
		t.Errorf("fired %d items, want 1002", fired)
	}
	if got := windowSnapshot(e).Value("sim/remote_msgs"); got != 1002 {
		t.Errorf("remote_msgs = %v, want 1002 (every post crosses the barrier)", got)
	}
}
