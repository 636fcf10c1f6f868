package runner

import (
	"math"
	"strings"
	"testing"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/workloads"
)

func tinyOpts() ExpOptions {
	return ExpOptions{Scale: workloads.ScaleTiny, CUsPerGPU: 2}
}

func TestRunProducesMetrics(t *testing.T) {
	m, err := Run("MT", Options{Scale: workloads.ScaleTiny, CUsPerGPU: 2, Policy: core.PolicyBDI})
	if err != nil {
		t.Fatal(err)
	}
	if m.ExecCycles == 0 || m.FabricBytes == 0 {
		t.Error("empty metrics")
	}
	if m.Traffic.RemoteReads == 0 || m.Traffic.RemoteWrites == 0 {
		t.Error("no remote accesses recorded")
	}
	if m.CodecEnergyPJ <= 0 {
		t.Error("no codec energy under BDI policy")
	}
	if m.FabricEnergyPJ <= 0 {
		t.Error("no fabric energy")
	}
	if m.CompressionRatio() <= 1 {
		t.Errorf("MT under BDI should compress, ratio = %v", m.CompressionRatio())
	}
}

func TestRunUnknownInputs(t *testing.T) {
	if _, err := Run("NOPE", Options{Scale: workloads.ScaleTiny}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestCharacterizationRatios(t *testing.T) {
	opts := Options{Scale: workloads.ScaleTiny, CUsPerGPU: 2, Characterize: true}
	m, err := Run("MT", opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []comp.Algorithm{comp.FPC, comp.BDI, comp.CPackZ} {
		r := m.CodecRatio(alg)
		if r < 1.5 || r > 4 {
			t.Errorf("MT %v ratio = %.2f, want byte-range data ≈2.7-3.1", alg, r)
		}
		if m.PerCodec[alg].Patterns.Total() == 0 {
			t.Errorf("%v pattern histogram empty", alg)
		}
	}
	// Paper ordering for MT: FPC > BDI > C-Pack+Z.
	if !(m.CodecRatio(comp.FPC) > m.CodecRatio(comp.BDI) &&
		m.CodecRatio(comp.BDI) > m.CodecRatio(comp.CPackZ)) {
		t.Errorf("MT ratio ordering: FPC=%.2f BDI=%.2f CP=%.2f, want FPC>BDI>CP",
			m.CodecRatio(comp.FPC), m.CodecRatio(comp.BDI), m.CodecRatio(comp.CPackZ))
	}
}

func TestTableVShapes(t *testing.T) {
	rows, err := TableV(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("TableV has %d rows", len(rows))
	}
	byBench := map[string]TableVRow{}
	for _, r := range rows {
		byBench[r.Benchmark] = r
	}

	// AES: nearly incompressible, entropy ≈ 1 (paper 0.96).
	aes := byBench["AES"]
	if aes.Entropy < 0.85 {
		t.Errorf("AES entropy = %.2f, want ≈0.96", aes.Entropy)
	}
	for alg, r := range aes.Ratio {
		if r > 1.2 {
			t.Errorf("AES %v ratio = %.2f, want ≈1", alg, r)
		}
	}

	// BS: very low entropy, C-Pack+Z > FPC >> BDI (paper 37 > 32 > 10).
	bs := byBench["BS"]
	if bs.Entropy > 0.15 {
		t.Errorf("BS entropy = %.2f, want ≈0.02", bs.Entropy)
	}
	if !(bs.Ratio[comp.CPackZ] > bs.Ratio[comp.FPC] && bs.Ratio[comp.FPC] > bs.Ratio[comp.BDI]) {
		t.Errorf("BS ratio ordering: CP=%.1f FPC=%.1f BDI=%.1f, want CP>FPC>BDI",
			bs.Ratio[comp.CPackZ], bs.Ratio[comp.FPC], bs.Ratio[comp.BDI])
	}
	if bs.Ratio[comp.CPackZ] < 5 {
		t.Errorf("BS C-Pack+Z ratio = %.1f, want large", bs.Ratio[comp.CPackZ])
	}

	// FIR: BDI best, FPC worst ≈ 1 (paper 2.41 / 1.00 / 1.73). At the tiny
	// test scale the fixed-size setup table carries extra weight, so BDI
	// only needs to be within noise of C-Pack+Z here; the scale-4 bench
	// reproduces the full ordering.
	fir := byBench["FIR"]
	if !(fir.Ratio[comp.BDI] > fir.Ratio[comp.FPC] && fir.Ratio[comp.CPackZ] > fir.Ratio[comp.FPC]) {
		t.Errorf("FIR ratios: BDI=%.2f CP=%.2f FPC=%.2f, want BDI,CP > FPC",
			fir.Ratio[comp.BDI], fir.Ratio[comp.CPackZ], fir.Ratio[comp.FPC])
	}
	if fir.Ratio[comp.BDI] < fir.Ratio[comp.CPackZ]-0.15 {
		t.Errorf("FIR BDI ratio %.2f too far below C-Pack+Z %.2f",
			fir.Ratio[comp.BDI], fir.Ratio[comp.CPackZ])
	}
	if fir.Ratio[comp.FPC] > 1.35 {
		t.Errorf("FIR FPC ratio = %.2f, want ≈1.0", fir.Ratio[comp.FPC])
	}

	// KM: C-Pack+Z > FPC >> BDI (paper 7.8 / 5.6 / 1.4).
	km := byBench["KM"]
	if !(km.Ratio[comp.CPackZ] > km.Ratio[comp.BDI] && km.Ratio[comp.FPC] > km.Ratio[comp.BDI]) {
		t.Errorf("KM ratios: CP=%.2f FPC=%.2f BDI=%.2f, want CP,FPC > BDI",
			km.Ratio[comp.CPackZ], km.Ratio[comp.FPC], km.Ratio[comp.BDI])
	}

	// SC: BDI > C-Pack+Z > FPC ≈ 1 (paper 2.69 / 1.82 / 1.03).
	sc := byBench["SC"]
	if !(sc.Ratio[comp.BDI] > sc.Ratio[comp.CPackZ] && sc.Ratio[comp.CPackZ] > sc.Ratio[comp.FPC]) {
		t.Errorf("SC ratio ordering: BDI=%.2f CP=%.2f FPC=%.2f, want BDI>CP>FPC",
			sc.Ratio[comp.BDI], sc.Ratio[comp.CPackZ], sc.Ratio[comp.FPC])
	}

	// MT: reads ≈ writes.
	mt := byBench["MT"]
	rw := float64(mt.Reads) / float64(mt.Writes)
	if rw < 0.7 || rw > 1.4 {
		t.Errorf("MT read/write = %.2f, want ≈1", rw)
	}

	out := FormatTableV(rows)
	if !strings.Contains(out, "TABLE V") || !strings.Contains(out, "AES") {
		t.Error("FormatTableV output malformed")
	}
}

func TestTableVIShapes(t *testing.T) {
	rows, err := TableVI(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 21 { // 7 benchmarks × 3 algorithms
		t.Fatalf("TableVI has %d rows", len(rows))
	}
	find := func(alg comp.Algorithm, bench string) TableVIRow {
		for _, r := range rows {
			if r.Algorithm == alg && r.Benchmark == bench {
				return r
			}
		}
		t.Fatalf("row %v/%s missing", alg, bench)
		return TableVIRow{}
	}
	// AES under FPC: dominated by uncompressed lines (pattern 9).
	if top := find(comp.FPC, "AES").Top; len(top) == 0 || top[0].Pattern != 9 {
		t.Errorf("AES/FPC top pattern = %v, want 9 (uncompressed)", top)
	}
	// BS under C-Pack+Z: dominated by zero words/blocks (patterns 1/2).
	if top := find(comp.CPackZ, "BS").Top; len(top) == 0 || (top[0].Pattern != 1 && top[0].Pattern != 2) {
		t.Errorf("BS/C-Pack+Z top pattern = %v, want zero word/block", top)
	}
	// MT under BDI: dominated by base4-delta1 (pattern 6).
	if top := find(comp.BDI, "MT").Top; len(top) == 0 || top[0].Pattern != 6 {
		t.Errorf("MT/BDI top pattern = %v, want 6 (base4 delta1)", top)
	}
	out := FormatTableVI(rows)
	if !strings.Contains(out, "TABLE VI") {
		t.Error("FormatTableVI output malformed")
	}
}

func TestFig1SeriesAndPhases(t *testing.T) {
	s, err := Fig1("FIR", 300, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Samples) != 300 {
		t.Fatalf("collected %d samples", len(s.Samples))
	}
	phases := SummarizeFig1Phases(s)
	// Phase 1 (index table): FPC compresses, BDI cannot.
	// Phase 2 (sensor data): BDI compresses, FPC cannot.
	fpc, bdi := phases[comp.FPC], phases[comp.BDI]
	if !(fpc[0] < bdi[0]) {
		t.Errorf("FIR phase 1: FPC mean %.1f B, BDI %.1f B — want FPC smaller", fpc[0], bdi[0])
	}
	if !(bdi[1] < fpc[1]) {
		t.Errorf("FIR phase 2: BDI mean %.1f B, FPC %.1f B — want BDI smaller", bdi[1], fpc[1])
	}
	out := FormatFig1("FIR", s)
	if !strings.Contains(out, "Fig. 1") {
		t.Error("FormatFig1 malformed")
	}
}

func TestFig5StaticCompressionShapes(t *testing.T) {
	rows, err := Fig5(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	get := func(bench, policy string) NormalizedResult {
		for _, r := range rows {
			if r.Benchmark == bench && r.Policy == policy {
				return r
			}
		}
		t.Fatalf("missing %s/%s", bench, policy)
		return NormalizedResult{}
	}
	// BS: traffic collapses under C-Pack+Z and execution time drops.
	bs := get("BS", "C-Pack+Z")
	if bs.Traffic > 0.6 {
		t.Errorf("BS C-Pack+Z traffic = %.2f, want large reduction", bs.Traffic)
	}
	if bs.ExecTime > 1.0 {
		t.Errorf("BS C-Pack+Z exec time = %.2f, want speedup", bs.ExecTime)
	}
	// AES: no codec helps; traffic stays ≈1.
	for _, p := range []string{"FPC", "BDI", "C-Pack+Z"} {
		r := get("AES", p)
		if r.Traffic < 0.9 {
			t.Errorf("AES %s traffic = %.2f, want ≈1 (incompressible)", p, r.Traffic)
		}
	}
	// SC: BDI beats FPC on traffic.
	if !(get("SC", "BDI").Traffic < get("SC", "FPC").Traffic) {
		t.Error("SC: BDI should reduce traffic more than FPC")
	}
	out := FormatNormalized("Fig. 5", "traffic", rows)
	if !strings.Contains(out, "Fig. 5") {
		t.Error("FormatNormalized malformed")
	}
	if !strings.Contains(out, "\nmean ") || strings.Contains(out, "gmean") {
		t.Errorf("FormatNormalized must label its arithmetic-mean row \"mean\":\n%s", out)
	}
}

func TestFig6AdaptiveShapes(t *testing.T) {
	rows, err := Fig6(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	get := func(bench, policy string) NormalizedResult {
		for _, r := range rows {
			if r.Benchmark == bench && r.Policy == policy {
				return r
			}
		}
		t.Fatalf("missing %s/%s", bench, policy)
		return NormalizedResult{}
	}
	// λ=0 minimizes traffic in aggregate (Sec. VII-A2). At the tiny test
	// scale a 307-transfer adaptive cycle can straddle a workload phase
	// change, so individual benchmarks carry sampling staleness noise;
	// the aggregate claim is the paper's.
	var s0, s6, s32 float64
	for _, b := range Benchmarks() {
		s0 += get(b, "Adaptive λ=0").Traffic
		s6 += get(b, "Adaptive λ=6").Traffic
		s32 += get(b, "Adaptive λ=32").Traffic
	}
	if s0 > s6+0.1 || s0 > s32+0.1 {
		t.Errorf("λ=0 aggregate traffic %.3f not minimal (λ=6 %.3f, λ=32 %.3f)", s0, s6, s32)
	}
	// Adaptive must never blow up AES: bypass keeps exec time ≈1.
	for _, p := range []string{"Adaptive λ=0", "Adaptive λ=6", "Adaptive λ=32"} {
		r := get("AES", p)
		if r.ExecTime > 1.1 {
			t.Errorf("AES %s exec time = %.2f, want ≈1 (bypass)", p, r.ExecTime)
		}
	}
	// On average, λ=6 must reduce traffic and not slow things down.
	var tSum, eSum float64
	for _, b := range Benchmarks() {
		r := get(b, "Adaptive λ=6")
		tSum += r.Traffic
		eSum += r.ExecTime
	}
	n := float64(len(Benchmarks()))
	if tSum/n > 0.85 {
		t.Errorf("adaptive λ=6 mean traffic = %.2f, want clear reduction", tSum/n)
	}
	if eSum/n > 1.0 {
		t.Errorf("adaptive λ=6 mean exec time = %.2f, want speedup", eSum/n)
	}
}

func TestFig7EnergyShapes(t *testing.T) {
	rows, err := Fig7(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	get := func(bench, policy string) NormalizedResult {
		for _, r := range rows {
			if r.Benchmark == bench && r.Policy == policy {
				return r
			}
		}
		t.Fatalf("missing %s/%s", bench, policy)
		return NormalizedResult{}
	}
	// AES with a static codec adds energy overhead (paper: >1).
	if r := get("AES", "C-Pack+Z"); r.Energy < 1.0 {
		t.Errorf("AES C-Pack+Z energy = %.3f, want ≥1 (overhead on incompressible data)", r.Energy)
	}
	// Adaptive λ=6 saves energy on average.
	var sum float64
	for _, b := range Benchmarks() {
		sum += get(b, "Adaptive λ=6").Energy
	}
	mean := sum / float64(len(Benchmarks()))
	if mean > 0.9 {
		t.Errorf("adaptive λ=6 mean energy = %.2f, want clear saving (paper: 0.55)", mean)
	}
	// BS saves the most energy.
	if r := get("BS", "Adaptive λ=6"); r.Energy > 0.5 {
		t.Errorf("BS adaptive energy = %.2f, want large saving", r.Energy)
	}
	if math.IsNaN(mean) {
		t.Error("energy is NaN")
	}
}

func TestFormatAreaOverhead(t *testing.T) {
	out := FormatAreaOverhead()
	for _, want := range []string{"BDI", "FPC", "C-Pack+Z", "37.25"} {
		if !strings.Contains(out, want) {
			t.Errorf("area overhead output missing %q", want)
		}
	}
}

// Under fabric congestion, compression must reduce the end-to-end remote
// read latency despite adding codec cycles: queueing dominates.
func TestCompressionReducesRemoteReadLatencyUnderLoad(t *testing.T) {
	base, err := Run("SC", Options{Scale: workloads.ScaleTiny, CUsPerGPU: 2})
	if err != nil {
		t.Fatal(err)
	}
	bdi, err := Run("SC", Options{Scale: workloads.ScaleTiny, CUsPerGPU: 2, Policy: core.PolicyBDI})
	if err != nil {
		t.Fatal(err)
	}
	if base.ReadLatency.Count() == 0 || bdi.ReadLatency.Count() == 0 {
		t.Fatal("no latency samples")
	}
	if bdi.ReadLatency.Mean() >= base.ReadLatency.Mean() {
		t.Errorf("BDI mean read latency %.0f not below baseline %.0f",
			bdi.ReadLatency.Mean(), base.ReadLatency.Mean())
	}
	if base.ReadLatency.Percentile(95) < base.ReadLatency.Percentile(50) {
		t.Error("latency percentiles inconsistent")
	}
}

func TestRunWithTraceOption(t *testing.T) {
	m, err := Run("MT", Options{Scale: workloads.ScaleTiny, CUsPerGPU: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.TraceLog == nil || len(m.TraceLog.Transfers()) == 0 {
		t.Fatal("no trace recorded")
	}
	// The trace's byte total must match the fabric accounting exactly.
	var total uint64
	for _, tr := range m.TraceLog.Transfers() {
		total += uint64(tr.Bytes)
	}
	if total != m.FabricBytes {
		t.Errorf("trace bytes %d != fabric bytes %d", total, m.FabricBytes)
	}
	if !strings.Contains(m.TraceLog.Summary(100, 3), "busiest flows") {
		t.Error("summary malformed")
	}
}

func TestPolicyNamesAndPick(t *testing.T) {
	names := PolicyNames()
	if len(names) != 4 || names[0] != "none" {
		t.Errorf("PolicyNames = %v", names)
	}
	r := NormalizedResult{Traffic: 1, ExecTime: 2, Energy: 3}
	if pick("traffic", r) != 1 || pick("time", r) != 2 || pick("energy", r) != 3 {
		t.Error("pick broken")
	}
}

// Fabric conservation: every wire message any engine sent is delivered
// exactly once. The delivered-message census must equal the sum of
// requests, responses and control messages implied by the RDMA counters
// and the kernel count.
func TestFabricMessageConservation(t *testing.T) {
	m, err := Run("MT", Options{Scale: workloads.ScaleTiny, CUsPerGPU: 2, Policy: core.PolicyBDI, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Platform
	kernels := uint64(1) // MT launches exactly one kernel
	numGPUs := uint64(4)
	// reads and writes each produce a request and a response; every kernel
	// produces one LaunchCmd and one KernelDone per GPU.
	want := 2*s.RDMAReadsSent + 2*s.RDMAWritesSent + 2*kernels*numGPUs
	if s.FabricMessages != want {
		t.Errorf("fabric delivered %d messages, conservation predicts %d", s.FabricMessages, want)
	}
	// And the trace agrees message for message.
	if uint64(len(m.TraceLog.Transfers())) != s.FabricMessages {
		t.Errorf("trace has %d transfers, fabric delivered %d",
			len(m.TraceLog.Transfers()), s.FabricMessages)
	}
}
