package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/platform"
	"mgpucompress/internal/runner"
	"mgpucompress/internal/stats"
	"mgpucompress/internal/sweep"
	"mgpucompress/internal/workloads"
)

// paperLambda is the adaptive λ the paper evaluates (Figs. 5-7).
const paperLambda = 6

// sweepWorkers is the closed loop's client count on reproduce-plan: two
// workers, each starting its next job only when the previous one finished.
const sweepWorkers = 2

// switchedCores is the engine worker count of the switched-64 runs.
const switchedCores = 2

// workload is one benchmark input set.
type workload struct {
	name string
	// scale is the workload input scale used when the command line does
	// not override it.
	scale workloads.Scale
	// pass simulates the workload once. An error means the harness itself
	// broke; failed simulations are reported through run outcomes.
	pass func(b *bench) (*passResult, error)
	// reference, when set, returns per-run snapshot digests computed once,
	// outside the timed region, that every pass must reproduce.
	reference func(b *bench) (map[string]string, error)
	// configs lists the platform configurations the workload builds, for
	// the standalone platform.Build timing.
	configs func() []platform.Config
}

var allWorkloads = []*workload{
	{name: "paper-bus", scale: 2, pass: paperBusPass, configs: busConfigs},
	{name: "switched-64", scale: 1, pass: switchedPass, reference: switchedReference, configs: switchedConfigs},
	{name: "reproduce-plan", scale: 1, pass: reproducePass, configs: busConfigs},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runOutcome is one simulated run of a pass.
type runOutcome struct {
	label  string
	err    error
	ms     float64 // host time of the call
	result *runner.Result
}

// passResult is everything one pass produced.
type passResult struct {
	runs []runOutcome
	// baseline and compressed pair runs (by index into runs) whose
	// adaptive ÷ none ratios make the normalized metrics.
	pairs [][2]int
	// errs are failed checks that belong to no single run.
	errs []error
	// sweep is set on reproduce-plan only.
	sweep *sweepStats
}

// sweepStats is the sweep layer's view of one reproduce-plan pass.
type sweepStats struct {
	progress      sweep.Progress
	prefetchMs    float64
	busyMs        float64 // summed host time of the executed jobs
	journalMs     float64
	journalBytes  int64
	resumeMs      float64
	fig7Adaptive6 []runner.NormalizedResult
}

// bench carries one process's benchmark state into the passes.
type bench struct {
	seed  int64
	scale workloads.Scale
	dir   string  // scratch directory for the sweep journal
	tr    *tracer // nil in untraced passes
}

// run calls runner.Run under a span and records the outcome.
func (b *bench) run(pr *passResult, label, name string, opts runner.Options, parent int) int {
	sp := b.tr.start("runner.Run", parent, map[string]any{"label": label})
	var codecs *codecCounters
	if b.tr != nil && opts.Policy == core.PolicyAdaptive && opts.SimCores <= 1 {
		// Forwarding codecs time every comp.Compressor call. They are
		// shared by the run's endpoints, which is safe only on the serial
		// engine.
		codecs = &codecCounters{}
		opts.Adaptive = &core.Config{Lambda: opts.Lambda, Candidates: codecs.wrap(comp.AllCompressors())}
	}
	t0 := time.Now()
	res, err := runner.Run(name, opts)
	ms := msSince(t0)
	if codecs != nil {
		b.tr.codecs.add(codecs)
		b.tr.child(sp, "comp.Compressor", t0, codecs.ns, map[string]any{"calls": codecs.calls, "aggregated": true})
	}
	b.tr.end(sp)
	pr.runs = append(pr.runs, runOutcome{label: label, err: err, ms: ms, result: res})
	return len(pr.runs) - 1
}

func busConfigs() []platform.Config { return []platform.Config{platform.DefaultConfig()} }

func switchedConfigs() []platform.Config {
	var out []platform.Config
	for _, topo := range switchedTopologies {
		cfg := platform.DefaultConfig()
		cfg.NumGPUs = 64
		cfg.Fabric.Topology = topo
		out = append(out, cfg)
	}
	return out
}

// paperBusPass runs every Table IV workload with and without adaptive
// compression on the paper's 4-GPU bus, on the serial engine.
func paperBusPass(b *bench) (*passResult, error) {
	pr := &passResult{}
	root := b.tr.start("pass", 0, map[string]any{"workload": "paper-bus"})
	defer b.tr.end(root)
	for _, w := range runner.Benchmarks() {
		base := runner.Options{Scale: b.scale, Seed: b.seed}
		adaptive := base
		adaptive.Policy, adaptive.Lambda = core.PolicyAdaptive, paperLambda
		i := b.run(pr, w+"/none", w, base, root)
		j := b.run(pr, w+"/adaptive", w, adaptive, root)
		pr.pairs = append(pr.pairs, [2]int{i, j})
	}
	return pr, nil
}

var switchedTopologies = []fabric.Topology{fabric.TopologyRing, fabric.TopologyTree}

// switchedOptions enumerates the switched-64 runs: SC (read-heavy) and BS
// (write-heavy, highly compressible) on the 64-GPU ring and tree, each
// without and with adaptive compression.
func switchedOptions(b *bench, cores int) (labels, benches []string, opts []runner.Options) {
	for _, w := range []string{"SC", "BS"} {
		for _, topo := range switchedTopologies {
			base := runner.Options{Scale: b.scale, Seed: b.seed, Topology: topo, NumGPUs: 64, SimCores: cores}
			adaptive := base
			adaptive.Policy, adaptive.Lambda = core.PolicyAdaptive, paperLambda
			for _, o := range []runner.Options{base, adaptive} {
				labels = append(labels, fmt.Sprintf("%s/%s/%s", w, topo, o.Policy))
				benches = append(benches, w)
				opts = append(opts, o)
			}
		}
	}
	return labels, benches, opts
}

func switchedPass(b *bench) (*passResult, error) {
	pr := &passResult{}
	root := b.tr.start("pass", 0, map[string]any{"workload": "switched-64"})
	defer b.tr.end(root)
	labels, benches, opts := switchedOptions(b, switchedCores)
	for i := range labels {
		b.run(pr, labels[i], benches[i], opts[i], root)
		if i%2 == 1 {
			pr.pairs = append(pr.pairs, [2]int{i - 1, i})
		}
	}
	return pr, nil
}

// switchedReference simulates the switched-64 runs on the serial engine;
// the parallel runs must reproduce these snapshots byte for byte.
func switchedReference(b *bench) (map[string]string, error) {
	ref := make(map[string]string)
	labels, benches, opts := switchedOptions(b, 1)
	for i := range labels {
		res, err := runner.Run(benches[i], opts[i])
		if err != nil {
			return nil, fmt.Errorf("serial reference %s: %w", labels[i], err)
		}
		ref[labels[i]] = runDigest(res)
	}
	return ref, nil
}

// timedJournal is the sweep journal: a buffered file whose writes and
// flushes are timed. The sweep engine serializes calls to it.
type timedJournal struct {
	w     *bufio.Writer
	ns    int64
	bytes int64
}

func (j *timedJournal) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := j.w.Write(p)
	j.ns += int64(time.Since(t0))
	j.bytes += int64(n)
	return n, err
}

func (j *timedJournal) Flush() error {
	t0 := time.Now()
	err := j.w.Flush()
	j.ns += int64(time.Since(t0))
	return err
}

// reproducePass runs cmd/reproduce's job plan through runner.Sweep with two
// workers and a journal, assembles every artifact from the cache, and then
// resumes a fresh sweep from that journal.
func reproducePass(b *bench) (*passResult, error) {
	pr := &passResult{sweep: &sweepStats{}}
	root := b.tr.start("pass", 0, map[string]any{"workload": "reproduce-plan"})
	defer b.tr.end(root)

	o := runner.ExpOptions{Scale: b.scale, Seed: b.seed}
	plan := runner.ReproducePlan(o)
	path := filepath.Join(b.dir, "journal.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	journal := &timedJournal{w: bufio.NewWriter(f)}

	prefetch := b.tr.start("runner.Sweep.Prefetch", root, map[string]any{"jobs": len(plan), "workers": sweepWorkers})
	var busyNs int64
	results := make(chan runOutcome, len(plan))
	s := runner.NewSweep(runner.SweepConfig{
		Jobs:    sweepWorkers,
		Journal: journal,
		Run: func(k sweep.JobKey) (*runner.Result, error) {
			sp := b.tr.start("runner.RunJob", prefetch, map[string]any{"job": k.Canonical()})
			t0 := time.Now()
			res, err := runner.RunJob(k)
			b.tr.end(sp)
			results <- runOutcome{label: k.Fingerprint(), err: err, ms: msSince(t0), result: res}
			return res, err
		},
	})
	t0 := time.Now()
	prefetchErr := s.Prefetch(plan)
	pr.sweep.prefetchMs = msSince(t0)
	b.tr.end(prefetch)
	close(results)
	for r := range results {
		busyNs += int64(r.ms * 1e6)
		pr.runs = append(pr.runs, r)
	}
	sort.Slice(pr.runs, func(i, j int) bool { return pr.runs[i].label < pr.runs[j].label })
	if err := f.Close(); err != nil {
		return nil, err
	}
	pr.sweep.busyMs = float64(busyNs) / 1e6
	pr.sweep.journalMs = float64(journal.ns) / 1e6
	pr.sweep.journalBytes = journal.bytes
	if prefetchErr != nil {
		// A failed simulation already carries its error in its outcome;
		// anything else (a journal write) fails the pass. Artifacts and the
		// resume check need the whole plan.
		pr.sweep.progress = s.Stats()
		if !slices.ContainsFunc(pr.runs, func(r runOutcome) bool { return r.err != nil }) {
			pr.errs = append(pr.errs, prefetchErr)
		}
		return pr, nil
	}

	assemble := b.tr.start("runner.Sweep.artifacts", root, nil)
	fig7, err := assembleArtifacts(s, o)
	b.tr.end(assemble)
	pr.sweep.progress = s.Stats()
	if err != nil {
		pr.errs = append(pr.errs, err)
		return pr, nil
	}
	for _, row := range fig7 {
		if row.Policy == "Adaptive λ=6" {
			pr.sweep.fig7Adaptive6 = append(pr.sweep.fig7Adaptive6, row)
		}
	}

	resume := b.tr.start("runner.Sweep.Resume", root, nil)
	t0 = time.Now()
	if err := checkResume(path, plan, s); err != nil {
		pr.errs = append(pr.errs, err)
	}
	pr.sweep.resumeMs = msSince(t0)
	b.tr.end(resume)
	return pr, nil
}

// assembleArtifacts builds every cmd/reproduce artifact from the sweep's
// cache and returns the Fig. 7 bars.
func assembleArtifacts(s *runner.Sweep, o runner.ExpOptions) ([]runner.NormalizedResult, error) {
	if _, err := s.TableV(o); err != nil {
		return nil, err
	}
	if _, err := s.TableVI(o); err != nil {
		return nil, err
	}
	for _, w := range runner.Fig1Benchmarks() {
		if _, err := s.Fig1(w, runner.Fig1Samples, o); err != nil {
			return nil, err
		}
	}
	if _, err := s.Fig5(o); err != nil {
		return nil, err
	}
	if _, err := s.Fig6(o); err != nil {
		return nil, err
	}
	return s.Fig7(o)
}

var errResimulated = errors.New("resumed sweep simulated a journaled job")

// checkResume replays the journal into a fresh sweep, which must serve the
// whole plan without simulating and reproduce every snapshot.
func checkResume(path string, plan []sweep.JobKey, done *runner.Sweep) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	s := runner.NewSweep(runner.SweepConfig{
		Jobs: sweepWorkers,
		Run:  func(sweep.JobKey) (*runner.Result, error) { return nil, errResimulated },
	})
	if _, err := s.Resume(f); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if err := s.Prefetch(plan); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	want := done.Completed()
	got := s.Completed()
	if len(got) != len(want) {
		return fmt.Errorf("resume: %d jobs restored, want %d", len(got), len(want))
	}
	for i := range want {
		if runDigest(got[i].Result) != runDigest(want[i].Result) {
			return fmt.Errorf("resume: job %s restored a different snapshot", want[i].Key.Fingerprint())
		}
	}
	return nil
}

// runDigest fingerprints what a run simulated: its cycle count and its full
// metric snapshot.
func runDigest(r *runner.Result) string {
	h := sha256.New()
	if err := r.Snapshot.WriteJSON(h); err != nil {
		panic(err) // hashing never fails; only marshalling a NaN could
	}
	return fmt.Sprintf("%d:%s", r.ExecCycles, hex.EncodeToString(h.Sum(nil)))
}

// norms are the modelled end-to-end metrics: geometric means of adaptive ÷
// none for simulated cycles, fabric bytes and fabric+codec energy.
type norms struct{ time, traffic, energy float64 }

func (pr *passResult) norms() norms {
	var ts, bs, es []float64
	if pr.sweep != nil {
		for _, row := range pr.sweep.fig7Adaptive6 {
			ts, bs, es = append(ts, row.ExecTime), append(bs, row.Traffic), append(es, row.Energy)
		}
	}
	for _, p := range pr.pairs {
		base, adp := pr.runs[p[0]].result, pr.runs[p[1]].result
		if base == nil || adp == nil {
			continue
		}
		ts = append(ts, float64(adp.ExecCycles)/float64(base.ExecCycles))
		bs = append(bs, float64(adp.FabricBytes)/float64(base.FabricBytes))
		es = append(es, adp.TotalEnergyPJ()/base.TotalEnergyPJ())
	}
	return norms{geomean(ts), geomean(bs), geomean(es)}
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// readLatency merges the remote-read latency samples of every run.
func (pr *passResult) readLatency() *stats.Histogram {
	h := &stats.Histogram{}
	for _, r := range pr.runs {
		if r.result != nil {
			h.Merge(&r.result.ReadLatency)
		}
	}
	return h
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
