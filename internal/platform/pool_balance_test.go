package platform_test

import (
	"testing"

	"mgpucompress/internal/core"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/fault"
	"mgpucompress/internal/platform"
	"mgpucompress/internal/workloads"
)

// TestPoolsBalanceAfterDrain runs whole workloads and then drains the
// engine: every envelope a mem.Pool issued must have been freed, and every
// RDMA transaction record recycled. A missing Free is otherwise a silent
// leak that costs nothing but allocations.
func TestPoolsBalanceAfterDrain(t *testing.T) {
	parse := func(s string) fault.Profile {
		p, err := fault.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name        string
		gpus        int
		topology    fabric.Topology
		remoteCache bool
		fault       fault.Profile
	}{
		{name: "bus", gpus: 8, topology: fabric.TopologyBus},
		{name: "crossbar", gpus: 8, topology: fabric.TopologyCrossbar},
		{name: "ring", gpus: 8, topology: fabric.TopologyRing},
		{name: "mesh", gpus: 8, topology: fabric.TopologyMesh},
		{name: "tree", gpus: 8, topology: fabric.TopologyTree},
		{name: "remote-cache mesh", gpus: 8, topology: fabric.TopologyMesh, remoteCache: true},
		{name: "light faults", gpus: 4, topology: fabric.TopologyBus, fault: parse("light")},
		{name: "aggressive faults", gpus: 4, topology: fabric.TopologyBus, fault: parse("aggressive")},
	}
	newPolicy, err := core.PolicyFactory(core.PolicyAdaptive, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := platform.DefaultConfig()
			cfg.NumGPUs = tc.gpus
			cfg.SimCores = 2
			cfg.Fabric.Topology = tc.topology
			cfg.NewPolicy = func(int) core.Policy { return newPolicy() }
			if tc.remoteCache {
				rc := platform.RemoteCacheConfig()
				cfg.RemoteCache = &rc
			}
			cfg.Fault, cfg.FaultSeed = tc.fault, 1
			p, _ := platform.Build(cfg)

			w, err := workloads.ByAbbrev("SC", workloads.ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			for _, stage := range []func(*platform.Platform) error{w.Setup, w.Run, w.Verify} {
				if err := stage(p); err != nil {
					t.Fatal(err)
				}
			}
			// Retry timeouts and late duplicates may still be queued after
			// the last kernel; let them play out.
			if err := p.Engine.Run(); err != nil {
				t.Fatal(err)
			}
			if p.Engine.Pending() != 0 {
				t.Fatalf("%d events still queued after the drain", p.Engine.Pending())
			}

			if n := p.HostPool.Outstanding(); n != 0 {
				t.Errorf("host pool: %d envelopes outstanding", n)
			}
			if n := p.HostRDMA.Outstanding(); n != 0 {
				t.Errorf("host RDMA: %d transaction records outstanding", n)
			}
			for _, dev := range p.GPUs {
				if n := dev.Pool.Outstanding(); n != 0 {
					t.Errorf("GPU%d pool: %d envelopes outstanding", dev.Index, n)
				}
				if n := dev.RDMA.Outstanding(); n != 0 {
					t.Errorf("GPU%d RDMA: %d transaction records outstanding", dev.Index, n)
				}
			}
			if tc.fault.Enabled() && p.Metrics.Snapshot().Value("fault/injected") == 0 {
				t.Error("the fault profile injected nothing")
			}
		})
	}
}
