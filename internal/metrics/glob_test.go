package metrics_test

import (
	"path"
	"testing"

	"mgpucompress/internal/metrics"
	"mgpucompress/internal/platform"
)

// globPatterns are the '*' patterns the segment matcher must agree with
// path.Match on: the platform's stats globs plus the shapes that trip a
// naive matcher.
var globPatterns = []string{
	"gpu*/l1_*/hits", "gpu*/l1_*/misses", "gpu*/l2_*/hits", "gpu*/dram_*/reads",
	"*/rdma/reads_sent", "*/rdma/writes_served", "gpu*/cu_*/wgs_retired",
	"gpu*/l15/hits", "gpu*/l15/misses",
	"gpu*/l1*/hits",           // l1* also takes the l15 rows
	"gpu*/hits", "gpu*/*/*/*", // depth mismatch both ways
	"gpu*", "*", "*/*", "*/*/*", // whole-depth wildcards
	"g*u*/*_*/*s", "*_*/*", "**/cycles", "sim/cycles", "fabric/*",
}

type namedSnapshot struct {
	name string
	snap metrics.Snapshot
}

// globSnapshots returns platform snapshots over every fabric, plus a
// hand-built one with the edge-case paths no platform registers. Values
// are distinct fractions, so a sum that adds in a different order, or adds
// a wrong sample, shows in the low bits.
func globSnapshots(t *testing.T) []namedSnapshot {
	t.Helper()
	var out []namedSnapshot
	for _, tc := range []struct {
		name string
		mut  func(*platform.Config)
	}{
		{"bus", func(*platform.Config) {}},
		{"crossbar", func(c *platform.Config) { c.Fabric.Topology = "crossbar" }},
		{"ring", func(c *platform.Config) { c.Fabric.Topology = "ring" }},
		{"tree", func(c *platform.Config) { c.Fabric.Topology = "tree" }},
		{"remote-cache", func(c *platform.Config) {
			rc := platform.RemoteCacheConfig()
			c.RemoteCache = &rc
		}},
		{"ring-64", func(c *platform.Config) {
			c.NumGPUs = 64
			c.Fabric.Topology = "ring"
		}},
	} {
		if testing.Short() && tc.name == "ring-64" {
			continue
		}
		cfg := platform.DefaultConfig()
		cfg.CUsPerGPU = 2
		tc.mut(&cfg)
		p, _ := platform.Build(cfg)
		out = append(out, namedSnapshot{tc.name, p.Metrics.Snapshot()})
	}

	r := metrics.NewRegistry()
	for _, p := range []string{
		"gpu/l1_0/hits",          // "gpu*" takes a bare "gpu"
		"host/rdma/reads_sent",   // "*/rdma/..." takes the host engine
		"gpu0/l15/hits",          // remote cache: not an l1_* row
		"gpu0/l1_/hits",          // empty star
		"gpu0/l1_0/hits/extra",   // deeper than every stats glob
		"gpu0/hits",              // shallower
		"gpu0//hits",             // empty segment
		"gpu12/cu_3/wgs_retired", // multi-digit index
	} {
		r.Counter(p)
	}
	out = append(out, namedSnapshot{"edge", r.Snapshot()})

	for _, ns := range out {
		for i := range ns.snap {
			ns.snap[i].Value = 1 / float64(i+3)
		}
	}
	return out
}

// TestGlobsAgreeWithPathMatch pins SumMatch, CountMatch and Tally to
// path.Match, path by path and bit for bit, on every platform fabric.
func TestGlobsAgreeWithPathMatch(t *testing.T) {
	globs := metrics.NewGlobs(globPatterns...)
	for _, ns := range globSnapshots(t) {
		name, s := ns.name, ns.snap
		sums := make([]float64, len(globPatterns))
		counts := make([]int, len(globPatterns))
		s.Tally(globs, sums, counts)
		for k, pat := range globPatterns {
			want, n := 0.0, 0
			for _, smp := range s {
				ok, err := path.Match(pat, smp.Path)
				if err != nil {
					t.Fatal(err)
				}
				one := metrics.Snapshot{smp}
				if got := one.CountMatch(pat) == 1; got != ok {
					t.Errorf("%s: match(%q, %q) = %v, path.Match says %v", name, pat, smp.Path, got, ok)
				}
				if ok {
					want += smp.Value
					n++
				}
			}
			if got := s.SumMatch(pat); got != want {
				t.Errorf("%s: SumMatch(%q) = %v, want %v", name, pat, got, want)
			}
			if got := s.CountMatch(pat); got != n {
				t.Errorf("%s: CountMatch(%q) = %d, want %d", name, pat, got, n)
			}
			if sums[k] != want || counts[k] != n {
				t.Errorf("%s: Tally(%q) = %v / %d, want %v / %d", name, pat, sums[k], counts[k], want, n)
			}
		}
	}
}
