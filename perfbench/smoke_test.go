package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatches checks that BENCHMARK.json names exactly the
// workloads and metrics this command emits, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(allWorkloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(bf.Workloads), len(allWorkloads))
	}
	for _, w := range bf.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	check := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: command emits %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for i := range want {
			if i < len(got) && (got[i].name != want[i].Name || got[i].unit != want[i].Unit) {
				t.Errorf("%s[%d]: command emits %s (%s), BENCHMARK.json lists %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
}

// TestSmoke runs every workload at the smallest scale, untraced and traced,
// and checks that every metric is emitted with its unit, that the CPU
// shares of the traced run sum to at most 1, and that traced and untraced
// passes simulate the same cycles.
func TestSmoke(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := config{workload: w.name, seed: 1, trace: trace, scale: 1, out: t.TempDir(), setupProcs: 1}
				res, rep, err := runBenchmark(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d\n%s", trace, res.Correct, res.Failed, res.Attempted, rep)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics emitted, want %d", trace, len(res.Metrics), len(defs))
				}
				shares := 0.0
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit == "" || m.Unit != d.unit {
						t.Errorf("trace=%v: metric %s missing or without its unit (%+v)", trace, d.name, m)
					}
					if strings.HasSuffix(d.name, ".cpu_share") {
						shares += m.Value
					}
				}
				if shares > 1+1e-9 {
					t.Errorf("cpu shares sum to %g > 1", shares)
				}
				if !trace && res.Metrics["wall_s"].Value <= 0 {
					t.Errorf("wall_s = %g", res.Metrics["wall_s"].Value)
				}
			}

			b := newBench(config{seed: 1, scale: 1}, w, t.TempDir())
			plain, err := w.pass(b)
			if err != nil {
				t.Fatal(err)
			}
			b.tr = newTracer()
			traced, err := w.pass(b)
			if err != nil {
				t.Fatal(err)
			}
			if len(plain.runs) != len(traced.runs) {
				t.Fatalf("untraced pass made %d runs, traced %d", len(plain.runs), len(traced.runs))
			}
			for i, r := range plain.runs {
				tr := traced.runs[i]
				if r.err != nil || tr.err != nil || r.label != tr.label || r.result.ExecCycles != tr.result.ExecCycles {
					t.Errorf("run %s: untraced and traced passes disagree on ExecCycles", r.label)
				}
			}
			if len(b.tr.spans) == 0 {
				t.Error("traced pass recorded no spans")
			}
		})
	}
}

// TestCPUBucket checks the attribution of single stacks (leaf first): the
// benchmark's own wrapper frames are not charged to the module that calls
// them, while the codec work they forward to still counts as comp.
func TestCPUBucket(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"time.now", "main.timedCodec.CompressedBits", internalPrefix + "core.(*Controller).Choose"}, bucketOther},
		{[]string{internalPrefix + "comp.bdi", "main.timedCodec.CompressedBits", internalPrefix + "core.(*Controller).Choose"}, "comp"},
		{[]string{internalPrefix + "bitstream.(*Writer).Write", internalPrefix + "comp.fpc"}, "comp"},
		{[]string{internalPrefix + "sim.(*eventQueue).pop", "main.paperBusPass"}, "sim"},
		{[]string{internalPrefix + "sim.(*Engine).worker"}, bucketBarrier},
		{[]string{"runtime.mallocgc", internalPrefix + "fabric.(*Bus).send"}, bucketAlloc},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.futex"}, bucketOther},
	} {
		if got := cpuBucket(c.stack); got != c.want {
			t.Errorf("cpuBucket(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}
