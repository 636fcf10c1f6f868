package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// Tests pinning the time-wheel event queue and the allocation-free
// ScheduleTick path to the (time, seq) total order the engine's determinism
// rests on.

// popAll drains q through popBefore, failing if it stops early.
func popAll(t *testing.T, q *eventQueue) []queuedEvent {
	t.Helper()
	var out []queuedEvent
	for q.len() > 0 {
		qe, ok := q.popBefore(TimeInf)
		if !ok {
			t.Fatalf("popBefore(TimeInf) refused with %d events queued", q.len())
		}
		out = append(out, qe)
	}
	return out
}

// TestEventQueuePopsSortedOrder: pushing random (time, seq) entries and
// popping them all yields exactly the (time, seq) sort. Half the trials
// push sequence numbers out of order inside one time, as stamped
// cross-partition merges do.
func TestEventQueuePopsSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		seqs := make([]int, n)
		for i := range seqs {
			seqs[i] = i
		}
		if trial%2 == 1 {
			rng.Shuffle(n, func(i, j int) { seqs[i], seqs[j] = seqs[j], seqs[i] })
		}
		var q eventQueue
		entries := make([]queuedEvent, 0, n)
		for _, seq := range seqs {
			qe := queuedEvent{time: Time(rng.Intn(32)), seq: uint64(seq)}
			entries = append(entries, qe)
			q.push(qe.time, qe.seq, qe.evt, qe.h)
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].less(entries[j]) })
		got := popAll(t, &q)
		for i, want := range entries {
			if got[i].time != want.time || got[i].seq != want.seq {
				t.Fatalf("trial %d: pop %d = (%d,%d), want (%d,%d)",
					trial, i, got[i].time, got[i].seq, want.time, want.seq)
			}
		}
	}
}

// TestEventQueueInterleavedPushPop exercises the queue under the engine's
// actual access pattern: pops interleaved with pushes of later times.
func TestEventQueueInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var q eventQueue
	seq := uint64(0)
	now := Time(0)
	var last queuedEvent
	popped := 0
	for step := 0; step < 10000; step++ {
		if q.len() == 0 || rng.Intn(3) > 0 {
			seq++
			q.push(now+Time(rng.Intn(16)), seq, nil, nil)
			continue
		}
		got, ok := q.popBefore(TimeInf)
		if !ok {
			t.Fatalf("step %d: popBefore refused a non-empty queue", step)
		}
		if popped > 0 && got.less(last) {
			t.Fatalf("step %d: pop (%d,%d) after (%d,%d)", step, got.time, got.seq, last.time, last.seq)
		}
		if got.time < now {
			t.Fatalf("step %d: time went backwards", step)
		}
		now = got.time
		last = got
		popped++
	}
}

// refQueue is the reference the wheel is pinned against: an unordered
// slice searched for its (time, seq) minimum.
type refQueue []queuedEvent

func (r refQueue) min() int {
	m := 0
	for i := range r {
		if r[i].less(r[m]) {
			m = i
		}
	}
	return m
}

// checkAgainstReference runs steps random operations on a wheel and the
// reference in lockstep, starting from time start. Each push lands
// delta() cycles after the current clock with a random, unique seq (so
// seqs arrive out of order inside one time, as stamped merges make them);
// each pop passes a random limit. len, headTime and every popped entry
// must agree. It returns the clock after the last pop.
func checkAgainstReference(t *testing.T, rng *rand.Rand, start Time, steps int, delta func() Time) (end Time) {
	t.Helper()
	var q eventQueue
	var ref refQueue
	seen := map[uint64]bool{}
	now := start
	// Move the wheel's base to start, as a popped event at start would.
	q.push(start, 0, nil, nil)
	if _, ok := q.popBefore(start + 1); !ok {
		t.Fatal("could not pop the start event")
	}
	for step := 0; step < steps; step++ {
		if len(ref) == 0 || rng.Intn(5) < 2 { // pops succeed 2 times in 3: a balanced walk
			seq := rng.Uint64() >> 1
			for seen[seq] {
				seq = rng.Uint64() >> 1
			}
			seen[seq] = true
			qe := queuedEvent{time: satAdd(now, delta()), seq: seq}
			if qe.time == TimeInf {
				qe.time-- // TimeInf means "never" to the engine
			}
			q.push(qe.time, qe.seq, qe.evt, qe.h)
			ref = append(ref, qe)
		} else {
			m := ref.min()
			limit := satAdd(ref[m].time, Time(rng.Intn(3))) // sometimes equal: must refuse
			got, ok := q.popBefore(limit)
			if want := ref[m].time < limit; ok != want {
				t.Fatalf("step %d: popBefore(%d) ok = %v with head %d", step, limit, ok, ref[m].time)
			}
			if ok {
				if got.time != ref[m].time || got.seq != ref[m].seq {
					t.Fatalf("step %d: pop (%d,%d), want (%d,%d)", step, got.time, got.seq, ref[m].time, ref[m].seq)
				}
				now = got.time
				ref[m] = ref[len(ref)-1]
				ref = ref[:len(ref)-1]
			}
		}
		if q.len() != len(ref) {
			t.Fatalf("step %d: len = %d, want %d", step, q.len(), len(ref))
		}
		want := TimeInf
		if len(ref) > 0 {
			want = ref[ref.min()].time
		}
		if got := q.headTime(); got != want {
			t.Fatalf("step %d: headTime = %d, want %d", step, got, want)
		}
	}
	return now
}

// TestEventQueueMatchesReference pins the wheel to the reference across the
// horizon: deltas in the measured near-horizon mix, deltas straddling the
// wheel's size up to three rings out (far-heap pushes and migrations), a
// clock near TimeInf, and long runs that wrap the bucket ring many times.
func TestEventQueueMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start Time
		steps int
		delta func(*rand.Rand) Time
		wraps Time // bucket rings the clock must cross
	}{
		{"straddling the horizon", 0, 20000, func(r *rand.Rand) Time { return Time(r.Intn(3*wheelSize + 1)) }, 0},
		{"at the horizon edge", 0, 20000, func(r *rand.Rand) Time { return wheelSize - 2 + Time(r.Intn(4)) }, 0},
		{"near TimeInf", TimeInf - 8*wheelSize, 5000, func(r *rand.Rand) Time { return Time(r.Intn(3*wheelSize + 1)) }, 0},
		{"near-horizon mix, many wraps", 0, 200000, nearHorizonDelta, 40},
		{"few times, many seqs", 0, 20000, func(r *rand.Rand) Time { return Time(r.Intn(2)) }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			end := checkAgainstReference(t, rng, tc.start, tc.steps, func() Time { return tc.delta(rng) })
			if end-tc.start < tc.wraps*wheelSize {
				t.Errorf("clock advanced only %d cycles, want %d rings", end-tc.start, tc.wraps)
			}
		})
	}
}

// nearHorizonDelta draws a scheduling distance from the mix measured over
// one paper-bus pass: 25% at 0 cycles, 42% at 1, 28% at 2–4, most of the
// rest within 64 and a small tail beyond the wheel.
func nearHorizonDelta(r *rand.Rand) Time {
	switch x := r.Intn(1000); {
	case x < 250:
		return 0
	case x < 670:
		return 1
	case x < 950:
		return 2 + Time(r.Intn(3))
	case x < 995:
		return 5 + Time(r.Intn(60))
	default:
		return 65 + Time(r.Intn(2*wheelSize))
	}
}

// TestEventQueuePushBelowCachedHead: after a partial run (RunUntil) host
// code may schedule between the last dispatched time and the cached head,
// both in the wheel and with only far events queued.
func TestEventQueuePushBelowCachedHead(t *testing.T) {
	var q eventQueue
	q.push(5, 1, nil, nil)
	q.push(15, 2, nil, nil)
	q.push(5+3*wheelSize, 3, nil, nil)
	if got, ok := q.popBefore(10); !ok || got.seq != 1 {
		t.Fatalf("first pop = %+v, %v", got, ok)
	}
	if _, ok := q.popBefore(15); ok {
		t.Fatal("popped the event at 15 under limit 15")
	}
	q.push(10, 4, nil, nil)
	q.push(5, 5, nil, nil) // at base itself
	if h := q.headTime(); h != 5 {
		t.Fatalf("headTime = %d, want 5", h)
	}
	for _, want := range []uint64{5, 4, 2} {
		if got, ok := q.popBefore(TimeInf); !ok || got.seq != want {
			t.Fatalf("pop = %+v, %v; want seq %d", got, ok, want)
		}
	}
	// Only the far event is left; a near push must still come first.
	q.push(20, 6, nil, nil)
	for _, want := range []uint64{6, 3} {
		if got, ok := q.popBefore(TimeInf); !ok || got.seq != want {
			t.Fatalf("pop = %+v, %v; want seq %d", got, ok, want)
		}
	}
	if q.len() != 0 || q.headTime() != TimeInf {
		t.Fatalf("len %d headTime %d after draining", q.len(), q.headTime())
	}
}

// TestEventQueueSteadyChurnAllocatesNothing: once the node slab and the far
// heap have grown to the working depth, push/pop churn reuses their slots.
func TestEventQueueSteadyChurnAllocatesNothing(t *testing.T) {
	var q eventQueue
	rng := rand.New(rand.NewSource(12))
	seq := uint64(0)
	now := Time(0)
	step := func() {
		for q.len() < 512 {
			seq++
			q.push(now+nearHorizonDelta(rng), seq, nil, nil)
		}
		qe, _ := q.popBefore(TimeInf)
		now = qe.time
	}
	for i := 0; i < 100000; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(10000, step); allocs != 0 {
		t.Fatalf("steady push/pop churn: %v allocs per step, want 0", allocs)
	}
}

// TestScheduleTickInterleavesWithSchedule: lightweight ticks and boxed
// events share one (time, seq) order, so mixing the two APIs preserves FIFO
// at equal timestamps.
func TestScheduleTickInterleavesWithSchedule(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	var order []int
	mk := func(id int) Handler {
		return handlerFunc(func(Event) error {
			order = append(order, id)
			return nil
		})
	}
	p.ScheduleTick(3, mk(0))
	p.Schedule(TickEvent{EventBase: NewEventBase(3, mk(1))})
	p.ScheduleTick(1, mk(2))
	p.Schedule(TickEvent{EventBase: NewEventBase(3, mk(3))})
	p.ScheduleTick(3, mk(4))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 0, 1, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.EventCount() != 5 {
		t.Fatalf("EventCount = %d, want 5", e.EventCount())
	}
}

// TestScheduleTickEventCarriesTime: the reusable tick event reports the
// scheduled time of each dispatch, even when one handler has several ticks
// in flight.
func TestScheduleTickEventCarriesTime(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	var times []Time
	h := handlerFunc(func(ev Event) error {
		times = append(times, ev.Time())
		if _, ok := ev.(*TickEvent); !ok {
			t.Fatalf("tick dispatched as %T, want *TickEvent", ev)
		}
		return nil
	})
	for _, tm := range []Time{7, 2, 2, 9} {
		p.ScheduleTick(tm, h)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{2, 2, 7, 9}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

// TestScheduleTickInPastPanics mirrors the Schedule contract.
func TestScheduleTickInPastPanics(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	p.ScheduleTick(10, handlerFunc(func(Event) error { return nil }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("scheduling a tick in the past did not panic")
		}
	}()
	p.ScheduleTick(5, handlerFunc(func(Event) error { return nil }))
}

// TestRunUntilLeavesTickQueued: the peek-based deadline check must also hold
// for lightweight ticks.
func TestRunUntilLeavesTickQueued(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	var fired []Time
	h := handlerFunc(func(ev Event) error {
		fired = append(fired, ev.Time())
		return nil
	})
	p.ScheduleTick(5, h)
	p.ScheduleTick(15, h)
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || e.Pending() != 1 {
		t.Fatalf("fired %v pending %d, want 1 event fired and 1 pending", fired, e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[1] != 15 {
		t.Fatalf("fired = %v after resume", fired)
	}
}

// BenchmarkEngineScheduleTickChurn measures the lightweight tick path —
// schedule and dispatch with the engine-owned reusable event. Must be
// 0 allocs/op in steady state.
func BenchmarkEngineScheduleTickChurn(b *testing.B) {
	e := NewEngine()
	p := e.Partition(0)
	h := handlerFunc(func(Event) error { return nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ScheduleTick(e.Now()+Time(i%64), h)
		if i%1024 == 1023 {
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineDeepQueueChurn keeps the queue at a constant 4096 pending
// entries (every handled tick re-schedules one) and measures dispatch in
// the heap's O(log n) regime. Must be 0 allocs/op in steady state.
func BenchmarkEngineDeepQueueChurn(b *testing.B) {
	e := NewEngine()
	p := e.Partition(0)
	rng := rand.New(rand.NewSource(8))
	var h handlerFunc
	h = func(ev Event) error {
		p.ScheduleTick(ev.Time()+1+Time(rng.Intn(1024)), h)
		return nil
	}
	const depth = 4096
	for i := 0; i < depth; i++ {
		p.ScheduleTick(1+Time(rng.Intn(1024)), h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.RunUntil(p.queue.headTime()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineNearHorizonChurn replays the scheduling distances measured
// over one paper-bus pass (see nearHorizonDelta) on one partition: 64
// handlers each re-schedule themselves on every dispatch, so the queue
// holds a steady 64 events, almost all inside the wheel. One op is one
// dispatched event. Must be 0 allocs/op in steady state.
func BenchmarkEngineNearHorizonChurn(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	deltas := make([]Time, 4096)
	for i := range deltas {
		deltas[i] = nearHorizonDelta(rng)
	}
	e := NewEngine()
	p := e.Partition(0)
	left, next := b.N, 0
	var h handlerFunc
	h = func(ev Event) error {
		if left > 0 {
			left--
			p.ScheduleTick(ev.Time()+deltas[next&4095], h)
			next++
		}
		return nil
	}
	for i := 0; i < 64; i++ {
		p.ScheduleTick(deltas[i], h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
