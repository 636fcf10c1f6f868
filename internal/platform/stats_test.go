package platform

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mgpucompress/internal/core"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/trace"
)

// runCopy builds a platform under cfg, runs one copy kernel, and returns it.
func runCopy(t *testing.T, cfg Config) *Platform {
	t.Helper()
	p, _ := Build(cfg)
	const lines = 64
	src := p.Space.AllocStriped(lines * mem.LineSize)
	dst := p.Space.AllocStriped(lines * mem.LineSize)
	data := make([]byte, lines*mem.LineSize)
	for i := range data {
		data[i] = byte(i / mem.LineSize)
	}
	src.Write(0, data)
	if err := p.Driver.Launch(copyKernel(src, dst, lines, 8)); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCollectStatsMatchesDirectAggregation is the no-double-counting proof:
// the snapshot-derived view must equal a direct walk over the component
// counter fields, including the float utilization bit for bit.
func TestCollectStatsMatchesDirectAggregation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"bus", func(*Config) {}},
		{"crossbar", func(c *Config) { c.Fabric.Topology = "crossbar" }},
		{"remote-cache", func(c *Config) {
			rc := RemoteCacheConfig()
			c.RemoteCache = &rc
		}},
		{"adaptive", func(c *Config) {
			c.NewPolicy = func(int) core.Policy { return core.NewAdaptive(core.Config{}) }
		}},
		{"ring", func(c *Config) { c.Fabric.Topology = "ring" }},
		{"tree", func(c *Config) { c.Fabric.Topology = "tree" }},
		{"ring-64", func(c *Config) {
			c.NumGPUs = 64
			c.Fabric.Topology = "ring"
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && strings.HasSuffix(tc.name, "-64") {
				t.Skip("64-GPU platform in -short mode")
			}
			cfg := testConfig()
			tc.mut(&cfg)
			p := runCopy(t, cfg)
			got := p.CollectStats()
			want := p.directStats()
			if got != want {
				t.Errorf("snapshot view diverges from direct aggregation:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	p := runCopy(t, testConfig())
	s1 := p.CollectStats()
	b1, err := json.Marshal(s1)
	if err != nil {
		t.Fatal(err)
	}
	var s2 Stats
	if err := json.Unmarshal(b1, &s2); err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Errorf("round trip mismatch:\n  %+v\n  %+v", s1, s2)
	}
	b2, err := json.Marshal(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("re-marshal differs:\n  %s\n  %s", b1, b2)
	}
}

func TestAdaptivePhaseSpansRecorded(t *testing.T) {
	cfg := testConfig()
	cfg.Spans = &trace.Recorder{}
	cfg.NewPolicy = func(int) core.Policy {
		return core.NewAdaptive(core.Config{SampleCount: 2, RunLength: 8})
	}
	p := runCopy(t, cfg)
	p.FinishTrace()

	var phases, kernels int
	for _, s := range p.Spans.Spans() {
		if s.End <= s.Start {
			t.Errorf("span %+v is not forward in time", s)
		}
		switch s.Cat {
		case "phase":
			phases++
		case "kernel":
			kernels++
		}
	}
	if phases == 0 {
		t.Error("no controller phase spans recorded")
	}
	if kernels != 1 {
		t.Errorf("kernel spans = %d, want 1", kernels)
	}

	// FinishTrace must be idempotent: a second call adds nothing.
	n := len(p.Spans.Spans())
	p.FinishTrace()
	if len(p.Spans.Spans()) != n {
		t.Error("second FinishTrace appended spans")
	}
}

// BenchmarkStatsFromSnapshot times the stats view of a 64-GPU ring snapshot,
// the largest platform the benchmarks build.
func BenchmarkStatsFromSnapshot(b *testing.B) {
	cfg := DefaultConfig()
	cfg.NumGPUs = 64
	cfg.Fabric.Topology = "ring"
	p, _ := Build(cfg)
	snap := p.Metrics.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStats = StatsFromSnapshot(snap)
	}
}

var benchStats Stats
