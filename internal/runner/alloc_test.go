package runner

import (
	"runtime"
	"testing"

	"mgpucompress/internal/core"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/workloads"
)

// ceilingRuns are the configurations whose host-independent counters are
// gated: the quickstart's size on the paper's 4-GPU bus, and an 8-GPU ring
// on the serial and the parallel engine. Each carries its ceilings.
var ceilingRuns = []struct {
	name string
	opts Options
	// mallocs is the heap-allocation ceiling per run.
	mallocs uint64
	// eventsPerCycle is the ceiling on events dispatched per simulated
	// cycle.
	eventsPerCycle float64
}{
	{
		// The quickstart's size: tiny inputs on the paper's 4-GPU bus.
		name:           "SC adaptive, 4-GPU bus, serial",
		opts:           Options{Scale: workloads.ScaleTiny, Policy: core.PolicyAdaptive, Lambda: 6, SimCores: 1},
		mallocs:        33_300, // measured 31,710
		eventsPerCycle: 8.14,   // measured 7.976 (87,053 events, 10,915 cycles)
	},
	{
		name: "SC adaptive, 8-GPU ring, serial",
		opts: Options{Scale: workloads.ScaleTiny, Policy: core.PolicyAdaptive, Lambda: 6,
			Topology: fabric.TopologyRing, NumGPUs: 8, SimCores: 1},
		mallocs:        37_100, // measured 35,360
		eventsPerCycle: 11.80,  // measured 11.568 (100,032 events, 8,647 cycles)
	},
	{
		// The same run on the parallel engine: each partition's
		// envelope pool and RDMA free list is used by its own worker.
		name: "SC adaptive, 8-GPU ring, 2 sim cores",
		opts: Options{Scale: workloads.ScaleTiny, Policy: core.PolicyAdaptive, Lambda: 6,
			Topology: fabric.TopologyRing, NumGPUs: 8, SimCores: 2},
		mallocs:        37_100, // measured 35,360
		eventsPerCycle: 11.80,  // measured 11.568 (100,032 events, 8,647 cycles)
	},
}

// TestAllocationCeilings gates heap allocations per simulated run, a
// host-independent counter: the simulation is deterministic, so a run's
// malloc count moves only when the code does. Each ceiling is the count
// measured when it was set plus about 5% headroom (absorbing runtime noise
// such as sync.Pool refills after a GC, and the race detector's extra
// allocations). A change that allocates more per event or per message
// fails here; a change that allocates less should lower the ceiling.
func TestAllocationCeilings(t *testing.T) {
	for _, tc := range ceilingRuns {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run("SC", tc.opts); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			got := after.Mallocs - before.Mallocs
			t.Logf("%d mallocs per run (ceiling %d)", got, tc.mallocs)
			if got > tc.mallocs {
				t.Errorf("%d heap allocations per run, above the ceiling of %d", got, tc.mallocs)
			}
		})
	}
}

// TestEventCeilings gates events dispatched per simulated cycle
// (sim/events_handled over sim/cycles). The count is a pure function of
// the simulation, identical on every host and at any core count, so each
// ceiling is the measured value plus about 2%: a change that schedules
// more events for the same simulated work fails here even when a faster
// event queue hides it in wall time. A change that schedules fewer should
// lower the ceiling.
func TestEventCeilings(t *testing.T) {
	for _, tc := range ceilingRuns {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run("SC", tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			events := res.Snapshot.Value("sim/events_handled")
			cycles := res.Snapshot.Value("sim/cycles")
			if events == 0 || cycles == 0 {
				t.Fatalf("snapshot reports %g events over %g cycles", events, cycles)
			}
			got := events / cycles
			t.Logf("%.4f events per cycle (%g events over %g cycles, ceiling %.4f)", got, events, cycles, tc.eventsPerCycle)
			if got > tc.eventsPerCycle {
				t.Errorf("%.4f events per simulated cycle, above the ceiling of %.4f", got, tc.eventsPerCycle)
			}
		})
	}
}
