package runner

import (
	"runtime"
	"testing"

	"mgpucompress/internal/core"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/workloads"
)

// TestAllocationCeilings gates heap allocations per simulated run, a
// host-independent counter: the simulation is deterministic, so a run's
// malloc count moves only when the code does. Each ceiling is the count
// measured when it was set plus about 5% headroom (absorbing runtime noise
// such as sync.Pool refills after a GC, and the race detector's extra
// allocations). A change that allocates more per event or per message
// fails here; a change that allocates less should lower the ceiling.
func TestAllocationCeilings(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		ceiling uint64
	}{
		{
			// The quickstart's size: tiny inputs on the paper's 4-GPU bus.
			name:    "SC adaptive, 4-GPU bus, serial",
			opts:    Options{Scale: workloads.ScaleTiny, Policy: core.PolicyAdaptive, Lambda: 6, SimCores: 1},
			ceiling: 33_300, // measured 31,710
		},
		{
			name: "SC adaptive, 8-GPU ring, serial",
			opts: Options{Scale: workloads.ScaleTiny, Policy: core.PolicyAdaptive, Lambda: 6,
				Topology: fabric.TopologyRing, NumGPUs: 8, SimCores: 1},
			ceiling: 37_100, // measured 35,360
		},
		{
			// The same run on the parallel engine: each partition's
			// envelope pool and RDMA free list is used by its own worker.
			name: "SC adaptive, 8-GPU ring, 2 sim cores",
			opts: Options{Scale: workloads.ScaleTiny, Policy: core.PolicyAdaptive, Lambda: 6,
				Topology: fabric.TopologyRing, NumGPUs: 8, SimCores: 2},
			ceiling: 37_100, // measured 35,360
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run("SC", tc.opts); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			got := after.Mallocs - before.Mallocs
			t.Logf("%d mallocs per run (ceiling %d)", got, tc.ceiling)
			if got > tc.ceiling {
				t.Errorf("%d heap allocations per run, above the ceiling of %d", got, tc.ceiling)
			}
		})
	}
}
