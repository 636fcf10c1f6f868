package mem

import (
	"math/rand"
	"reflect"
	"testing"

	"mgpucompress/internal/sim"
)

// TestPoolRecycledEnvelopesAreFresh drives a pool through a random
// sequence of New and Free calls, scribbling over every live envelope the
// way ports and components do (IDs, timestamps, sizes, payloads). Every
// envelope New returns, recycled or not, must equal one freshly built by a
// pool that never recycled anything.
func TestPoolRecycledEnvelopesAreFresh(t *testing.T) {
	o := &portOwner{ComponentBase: sim.NewComponentBase("o")}
	ports := []*sim.Port{sim.NewPort(o, "a", 0), sim.NewPort(o, "b", 0), sim.NewPort(o, "c", 0)}
	rng := rand.New(rand.NewSource(1))
	pool := new(Pool)
	var live []sim.Msg
	issued := make(map[sim.Msg]bool) // every envelope the pool ever handed out
	recycled := 0

	for i := 0; i < 20_000; i++ {
		if len(live) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(live))
			pool.Free(live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		src, dst := ports[rng.Intn(len(ports))], ports[rng.Intn(len(ports))]
		addr, id := rng.Uint64(), rng.Uint64()
		data := make([]byte, rng.Intn(65))
		rng.Read(data)
		// fresh builds the same envelope from a pool with an empty free
		// list, then claims it for pool so the owner field compares equal.
		fresh := new(Pool)
		var got, want sim.Msg
		switch rng.Intn(4) {
		case 0:
			got, want = pool.NewReadReq(src, dst, addr, len(data)), fresh.NewReadReq(src, dst, addr, len(data))
			want.(*ReadReq).pool = pool
		case 1:
			got, want = pool.NewWriteReq(src, dst, addr, data), fresh.NewWriteReq(src, dst, addr, data)
			want.(*WriteReq).pool = pool
		case 2:
			got, want = pool.NewDataReady(src, dst, id, addr, data), fresh.NewDataReady(src, dst, id, addr, data)
			want.(*DataReady).pool = pool
		default:
			got, want = pool.NewWriteACK(src, dst, id, addr), fresh.NewWriteACK(src, dst, id, addr)
			want.(*WriteACK).pool = pool
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: New returned %+v, a fresh build is %+v", i, got, want)
		}
		if issued[got] {
			recycled++
		}
		issued[got] = true
		// Use it: everything a port or component writes into a message.
		m := got.Meta()
		m.ID, m.SendTime, m.RecvTime, m.Bytes = rng.Uint64(), sim.Time(rng.Uint64()), sim.Time(rng.Uint64()), rng.Int()
		live = append(live, got)
	}
	if pool.Outstanding() != len(live) {
		t.Errorf("Outstanding = %d, want %d live envelopes", pool.Outstanding(), len(live))
	}
	for _, m := range live {
		pool.Free(m)
	}
	if pool.Outstanding() != 0 {
		t.Errorf("Outstanding = %d after freeing everything", pool.Outstanding())
	}
	if recycled < 5_000 {
		t.Errorf("only %d of the New calls reused an envelope", recycled)
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestPoolFreeMisusePanics(t *testing.T) {
	o := &portOwner{ComponentBase: sim.NewComponentBase("o")}
	src, dst := sim.NewPort(o, "src", 0), sim.NewPort(o, "dst", 0)
	a, b := new(Pool), new(Pool)

	envelopes := []sim.Msg{
		a.NewReadReq(src, dst, 0, 64),
		a.NewWriteReq(src, dst, 0, make([]byte, 64)),
		a.NewDataReady(src, dst, 1, 0, make([]byte, 64)),
		a.NewWriteACK(src, dst, 1, 0),
	}
	for _, m := range envelopes {
		mustPanic(t, "freeing another pool's envelope", func() { b.Free(m) })
		a.Free(m)
		mustPanic(t, "a double free", func() { a.Free(m) })
	}
	mustPanic(t, "freeing an envelope no pool issued", func() { a.Free(&ReadReq{}) })
	if a.Outstanding() != 0 || b.Outstanding() != 0 {
		t.Errorf("misuse moved the counts: %d, %d", a.Outstanding(), b.Outstanding())
	}
}

func TestPoolSteadyStateAllocatesNothing(t *testing.T) {
	o := &portOwner{ComponentBase: sim.NewComponentBase("o")}
	src, dst := sim.NewPort(o, "src", 0), sim.NewPort(o, "dst", 0)
	pool := new(Pool)
	data := make([]byte, 64)
	cycle := func() {
		r := pool.NewReadReq(src, dst, 0x40, 64)
		w := pool.NewWriteReq(src, dst, 0x40, data)
		d := pool.NewDataReady(src, dst, 1, 0x40, data)
		k := pool.NewWriteACK(src, dst, 2, 0x40)
		pool.Free(d)
		pool.Free(r)
		pool.Free(k)
		pool.Free(w)
	}
	cycle() // fill the free lists
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("steady New/Free cycle allocates %v times, want 0", n)
	}
}
