package runner

import (
	"fmt"
	"sort"
	"strings"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/energy"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/fault"
	"mgpucompress/internal/stats"
	"mgpucompress/internal/workloads"
)

// ExpOptions parameterizes a whole experiment (one table or figure).
type ExpOptions struct {
	Scale     workloads.Scale
	CUsPerGPU int
	// Seed pins every job's input-generation seed (0 = derive each job's
	// seed from its key fingerprint). Pinning changes the job fingerprints,
	// so a seeded experiment never collides with an unseeded journal.
	Seed int64
	// Fault applies a fault-injection profile to every job (zero = off;
	// like Seed, it changes the job fingerprints when set).
	Fault fault.Profile
	// SimCores sets every job's engine worker count (0/1 = serial). Unlike
	// Seed and Fault it never reaches the fingerprints: results are
	// byte-identical for any value.
	SimCores int
	// Topology selects the interconnect for every job ("" = shared bus);
	// NumGPUs the endpoint count (0 = the paper's 4). Both reach the job
	// fingerprints, so experiments on different fabrics never share runs.
	Topology fabric.Topology
	NumGPUs  int
}

func (o ExpOptions) base() Options {
	return Options{Scale: o.Scale, CUsPerGPU: o.CUsPerGPU, Seed: o.Seed, Fault: o.Fault,
		SimCores: o.SimCores, Topology: o.Topology, NumGPUs: o.NumGPUs}
}

// ---------------------------------------------------------------------------
// Table V: Inter-GPU Data Characteristics
// ---------------------------------------------------------------------------

// TableVRow is one benchmark row of Table V.
type TableVRow struct {
	Benchmark string
	Reads     uint64
	Writes    uint64
	Entropy   float64
	Ratio     map[comp.Algorithm]float64
}

// TableV characterizes every benchmark's inter-GPU traffic: remote access
// counts, aggregate byte entropy, and the compression ratio each codec
// would achieve on the transferred payloads. The characterization runs are
// shared with TableVI through the sweep cache.
func (s *Sweep) TableV(o ExpOptions) ([]TableVRow, error) {
	ms, err := s.All(characterizationKeys(o))
	if err != nil {
		return nil, err
	}
	rows := make([]TableVRow, 0, len(ms))
	for i, b := range Benchmarks() {
		m := ms[i]
		row := TableVRow{
			Benchmark: b,
			Reads:     m.Traffic.RemoteReads,
			Writes:    m.Traffic.RemoteWrites,
			Entropy:   m.Traffic.Entropy(),
			Ratio:     make(map[comp.Algorithm]float64, 3),
		}
		for _, alg := range []comp.Algorithm{comp.BDI, comp.FPC, comp.CPackZ} {
			row.Ratio[alg] = m.CodecRatio(alg)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// TableV runs the characterization on a fresh single-use sweep.
func TableV(o ExpOptions) ([]TableVRow, error) { return NewSweep(SweepConfig{}).TableV(o) }

// FormatTableV renders Table V the way the paper prints it.
func FormatTableV(rows []TableVRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE V: Inter-GPU Data Characteristics\n")
	fmt.Fprintf(&b, "%-6s %10s %10s %8s %8s %8s %10s\n",
		"Bench.", "Read(K)", "Write(K)", "Entropy", "BDI", "FPC", "C-Pack+Z")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %10s %10s %8.2f %8.2f %8.2f %10.2f\n",
			r.Benchmark, stats.FormatKilo(r.Reads), stats.FormatKilo(r.Writes),
			r.Entropy, r.Ratio[comp.BDI], r.Ratio[comp.FPC], r.Ratio[comp.CPackZ])
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table VI: top detected patterns
// ---------------------------------------------------------------------------

// TableVIRow is one (algorithm, benchmark) cell: the top-3 detected
// patterns with their shares.
type TableVIRow struct {
	Algorithm comp.Algorithm
	Benchmark string
	Top       []comp.PatternShare
}

// TableVI reports the three most detected patterns by each compression
// algorithm for each benchmark, reusing TableV's characterization runs when
// both artifacts share a sweep.
func (s *Sweep) TableVI(o ExpOptions) ([]TableVIRow, error) {
	ms, err := s.All(characterizationKeys(o))
	if err != nil {
		return nil, err
	}
	var rows []TableVIRow
	for i, b := range Benchmarks() {
		for _, alg := range []comp.Algorithm{comp.FPC, comp.CPackZ, comp.BDI} {
			rows = append(rows, TableVIRow{
				Algorithm: alg,
				Benchmark: b,
				Top:       ms[i].PerCodec[alg].Patterns.Top(3),
			})
		}
	}
	return rows, nil
}

// TableVI runs the pattern characterization on a fresh single-use sweep.
func TableVI(o ExpOptions) ([]TableVIRow, error) { return NewSweep(SweepConfig{}).TableVI(o) }

// FormatTableVI renders Table VI.
func FormatTableVI(rows []TableVIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE VI: Three most detected patterns by compression algorithms\n")
	byAlg := map[comp.Algorithm][]TableVIRow{}
	for _, r := range rows {
		byAlg[r.Algorithm] = append(byAlg[r.Algorithm], r)
	}
	for _, alg := range []comp.Algorithm{comp.FPC, comp.CPackZ, comp.BDI} {
		fmt.Fprintf(&b, "%s:\n", alg)
		for _, r := range byAlg[alg] {
			var cells []string
			for _, t := range r.Top {
				cells = append(cells, fmt.Sprintf("(%d) %4.1f%%", t.Pattern, t.Share*100))
			}
			fmt.Fprintf(&b, "  %-4s %s\n", r.Benchmark, strings.Join(cells, "  "))
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 1: compressed size and entropy over consecutive transfers
// ---------------------------------------------------------------------------

// Fig1 collects the first n consecutive inter-GPU payload transfers of a
// benchmark (the paper uses SC and FIR, n = 500) with per-codec compressed
// sizes and per-transfer entropy.
func (s *Sweep) Fig1(benchmark string, n int, o ExpOptions) (*stats.Series, error) {
	m, err := s.Result(fig1Key(benchmark, n, o))
	if err != nil {
		return nil, err
	}
	return m.Series, nil
}

// Fig1 collects the series on a fresh single-use sweep.
func Fig1(benchmark string, n int, o ExpOptions) (*stats.Series, error) {
	return NewSweep(SweepConfig{}).Fig1(benchmark, n, o)
}

// FormatFig1 renders the series as columns (index, entropy, sizes).
func FormatFig1(benchmark string, s *stats.Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1 (%s): %d consecutive inter-GPU transfers\n", benchmark, len(s.Samples))
	fmt.Fprintf(&b, "%6s %8s %6s %6s %10s\n", "xfer", "entropy", "FPC", "BDI", "C-Pack+Z")
	for _, smp := range s.Samples {
		fmt.Fprintf(&b, "%6d %8.3f %6d %6d %10d\n",
			smp.Index, smp.Entropy, smp.Size[comp.FPC], smp.Size[comp.BDI], smp.Size[comp.CPackZ])
	}
	return b.String()
}

// SummarizeFig1Phases splits the series into two halves and reports each
// codec's mean compressed size per half — the phase-change signature the
// paper discusses.
func SummarizeFig1Phases(s *stats.Series) map[comp.Algorithm][2]float64 {
	out := map[comp.Algorithm][2]float64{}
	if len(s.Samples) == 0 {
		return out
	}
	half := len(s.Samples) / 2
	for _, alg := range []comp.Algorithm{comp.FPC, comp.BDI, comp.CPackZ} {
		var sums [2]float64
		var counts [2]int
		for i, smp := range s.Samples {
			h := 0
			if i >= half {
				h = 1
			}
			sums[h] += float64(smp.Size[alg])
			counts[h]++
		}
		var means [2]float64
		for h := 0; h < 2; h++ {
			if counts[h] > 0 {
				means[h] = sums[h] / float64(counts[h])
			}
		}
		out[alg] = means
	}
	return out
}

// ---------------------------------------------------------------------------
// Figs. 5 and 6: normalized traffic and execution time
// ---------------------------------------------------------------------------

// NormalizedResult is one bar of Figs. 5/6/7: a policy's traffic, exec time
// and energy relative to no compression.
type NormalizedResult struct {
	Benchmark string
	Policy    string
	Traffic   float64
	ExecTime  float64
	Energy    float64
}

// normalize folds one benchmark's (baseline, per-spec) results into the
// Fig. 5/6/7 bars.
func normalize(benchmark string, specs []policySpec, base *Result, ms []*Result) []NormalizedResult {
	out := make([]NormalizedResult, 0, len(specs))
	for i, spec := range specs {
		m := ms[i]
		out = append(out, NormalizedResult{
			Benchmark: benchmark,
			Policy:    spec.label,
			Traffic:   float64(m.FabricBytes) / float64(base.FabricBytes),
			ExecTime:  float64(m.ExecCycles) / float64(base.ExecCycles),
			Energy:    m.TotalEnergyPJ() / base.TotalEnergyPJ(),
		})
	}
	return out
}

type policySpec struct {
	label  string
	policy core.PolicyID
	lambda float64
}

var staticSpecs = []policySpec{
	{"FPC", core.PolicyFPC, 0},
	{"BDI", core.PolicyBDI, 0},
	{"C-Pack+Z", core.PolicyCPackZ, 0},
}

var adaptiveSpecs = []policySpec{
	{"Adaptive λ=0", core.PolicyAdaptive, 0},
	{"Adaptive λ=6", core.PolicyAdaptive, 6},
	{"Adaptive λ=32", core.PolicyAdaptive, 32},
}

// Fig5 measures inter-GPU traffic and execution time for the static
// compression algorithms, normalized to no compression.
func (s *Sweep) Fig5(o ExpOptions) ([]NormalizedResult, error) {
	return s.runAll(staticSpecs, o)
}

// Fig6 measures the adaptive algorithm across λ values.
func (s *Sweep) Fig6(o ExpOptions) ([]NormalizedResult, error) {
	return s.runAll(adaptiveSpecs, o)
}

// Fig7 measures normalized energy for static and adaptive policies. Every
// run is shared with Fig5 and Fig6 through the sweep cache.
func (s *Sweep) Fig7(o ExpOptions) ([]NormalizedResult, error) {
	return s.runAll(allSpecs(), o)
}

// Fig5 measures the static codecs on a fresh single-use sweep.
func Fig5(o ExpOptions) ([]NormalizedResult, error) { return NewSweep(SweepConfig{}).Fig5(o) }

// Fig6 measures the adaptive λ sweep on a fresh single-use sweep.
func Fig6(o ExpOptions) ([]NormalizedResult, error) { return NewSweep(SweepConfig{}).Fig6(o) }

// Fig7 measures normalized energy on a fresh single-use sweep.
func Fig7(o ExpOptions) ([]NormalizedResult, error) { return NewSweep(SweepConfig{}).Fig7(o) }

// runAll fans every benchmark's baseline and per-spec runs out across the
// worker pool in one batch, then assembles the bars in canonical
// (benchmark, spec) order regardless of completion order.
func (s *Sweep) runAll(specs []policySpec, o ExpOptions) ([]NormalizedResult, error) {
	ms, err := s.All(normalizedKeys(specs, o))
	if err != nil {
		return nil, err
	}
	stride := len(specs) + 1 // baseline first, then one run per spec
	var out []NormalizedResult
	for i, b := range Benchmarks() {
		group := ms[i*stride : (i+1)*stride]
		out = append(out, normalize(b, specs, group[0], group[1:])...)
	}
	return out, nil
}

// FormatNormalized renders Fig. 5/6/7 results as a bench × policy matrix of
// the chosen metric ("traffic", "time" or "energy").
func FormatNormalized(title, metric string, rows []NormalizedResult) string {
	policies := orderedPolicies(rows)
	byKey := map[string]NormalizedResult{}
	benchSet := map[string]bool{}
	for _, r := range rows {
		byKey[r.Benchmark+"|"+r.Policy] = r
		benchSet[r.Benchmark] = true
	}
	var benches []string
	for _, b := range Benchmarks() {
		if benchSet[b] {
			benches = append(benches, b)
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (normalized %s, 1.00 = no compression)\n", title, metric)
	fmt.Fprintf(&sb, "%-6s", "Bench")
	for _, p := range policies {
		fmt.Fprintf(&sb, " %14s", p)
	}
	sb.WriteString("\n")
	sums := make([]float64, len(policies))
	for _, b := range benches {
		fmt.Fprintf(&sb, "%-6s", b)
		for i, p := range policies {
			r := byKey[b+"|"+p]
			v := pick(metric, r)
			sums[i] += v
			fmt.Fprintf(&sb, " %14.3f", v)
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "%-6s", "mean")
	for i := range policies {
		fmt.Fprintf(&sb, " %14.3f", sums[i]/float64(len(benches)))
	}
	sb.WriteString("\n")
	return sb.String()
}

func pick(metric string, r NormalizedResult) float64 {
	switch metric {
	case "traffic":
		return r.Traffic
	case "time":
		return r.ExecTime
	default:
		return r.Energy
	}
}

func orderedPolicies(rows []NormalizedResult) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rows {
		if !seen[r.Policy] {
			seen[r.Policy] = true
			out = append(out, r.Policy)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Sec. VII-C: area overhead
// ---------------------------------------------------------------------------

// FormatAreaOverhead renders the Sec. VII-C area calculation.
func FormatAreaOverhead() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Sec. VII-C: area overhead vs a %.2f mm² 7nm R9 Nano die\n",
		energy.R9Nano7nmAreaMM2)
	algs := []comp.Algorithm{comp.BDI, comp.CPackZ, comp.FPC}
	sort.Slice(algs, func(i, j int) bool {
		return energy.AreaOverheadPercent(algs[i]) < energy.AreaOverheadPercent(algs[j])
	})
	for _, alg := range algs {
		fmt.Fprintf(&sb, "  %-9s %8.0f µm²  -> %.2e %%\n",
			alg, comp.CostOf(alg).AreaUM2, energy.AreaOverheadPercent(alg))
	}
	return sb.String()
}
