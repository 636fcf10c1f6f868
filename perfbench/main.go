// Command perfbench is mgpucompress's benchmark. It drives the simulator
// only through its public functions (runner.Run, runner.Sweep,
// platform.Build, comp.Compressor, schedbench.Run), measures one workload
// for a fixed time, checks every simulated run, and prints each metric by
// name with its unit. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
//	go build -o perfbench . && ./perfbench --workload paper-bus --seed 1 --seconds 10 --trace 0
//
// It must run from the root of an mgpucompress checkout (see run.sh).
// Metric definitions and the layer map are in README.md.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mgpucompress/internal/platform"
	"mgpucompress/internal/sim/schedbench"
	"mgpucompress/internal/workloads"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run. Host time is simulator
// cost; the *_norm metrics are simulated (modelled) quantities.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"allocs_m", "M"},
	{"alloc_mb", "MB"},
	{"peak_heap_mb", "MB"},
	{"sim_time_norm", "ratio"},
	{"traffic_norm", "ratio"},
	{"energy_norm", "ratio"},
}

// perLayer are the metrics of the traced run, one group per module.
var perLayer = []metricDef{
	{"sim.cpu_share", "frac"},
	{"sim.alloc_share", "frac"},
	{"sim.ns_per_event", "ns"},
	{"sim.events", "count"},
	{"sim.events_per_cycle", "events/cycle"},
	{"sim.sched_events_per_s", "events/s"},
	{"sim.barrier_cpu_share", "frac"},
	{"sim.windows", "count"},
	{"sim.events_per_window", "events"},
	{"sim.barrier_spins", "count"},
	{"sim.serial_fallback_windows", "count"},
	{"sim.remote_msgs", "count"},
	{"fabric.cpu_share", "frac"},
	{"fabric.alloc_share", "frac"},
	{"fabric.bytes", "bytes"},
	{"fabric.messages", "count"},
	{"fabric.utilization", "frac"},
	{"fabric.hops", "count"},
	{"gpu.cpu_share", "frac"},
	{"gpu.alloc_share", "frac"},
	{"gpu.compute_cycles", "cycles"},
	{"gpu.wgs_retired", "count"},
	{"cache.cpu_share", "frac"},
	{"cache.l1_hit_rate", "frac"},
	{"cache.l2_hit_rate", "frac"},
	{"mem.cpu_share", "frac"},
	{"mem.dram_accesses", "count"},
	{"rdma.cpu_share", "frac"},
	{"rdma.remote_reads", "count"},
	{"rdma.remote_writes", "count"},
	{"rdma.read_latency_p50", "cycles"},
	{"rdma.read_latency_p95", "cycles"},
	{"stats.cpu_share", "frac"},
	{"core.cpu_share", "frac"},
	{"core.sampling_rounds", "count"},
	{"core.bypass_rounds", "count"},
	{"comp.cpu_share", "frac"},
	{"comp.calls", "count"},
	{"comp.ns_per_call", "ns"},
	{"comp.payload_ratio", "ratio"},
	{"gc.cpu_share", "frac"},
	{"gc.cycles", "count"},
	{"alloc.cpu_share", "frac"},
	{"runner.run_ms.p50", "ms"},
	{"runner.runs", "count"},
	{"platform.build_ms", "ms"},
	{"platform.cpu_share", "frac"},
	{"workloads.cpu_share", "frac"},
	{"sweep.simulated", "count"},
	{"sweep.cache_hits", "count"},
	{"sweep.worker_busy_frac", "frac"},
	{"sweep.journal_write_ms", "ms"},
	{"sweep.journal_bytes", "bytes"},
	{"sweep.resume_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    int    // 0 = the workload's own scale; only the smoke test sets it
	out      string // directory for result files, spans and profiles
	// setupProcs is how many fresh processes time the warm-up pass for
	// setup_s: this one plus children.
	setupProcs int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{setupProcs: 3}
	var trace int
	var warmupChild bool
	flag.StringVar(&cfg.workload, "workload", "paper-bus", "workload: paper-bus, switched-64 or reproduce-plan")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed region in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench", "out"), "output directory")
	flag.BoolVar(&warmupChild, "warmup-child", false, "run one warm-up pass, print its time and outcome as JSON and exit")
	flag.Parse()
	cfg.trace = trace == 1

	if warmupChild {
		s, err := warmupOnly(cfg)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
			fatal(err)
		}
		return
	}

	res, rep, err := runBenchmark(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// maxErrs bounds the failure messages kept for the report.
const maxErrs = 20

// checker is the correctness gate: every run must succeed and simulate
// exactly what the first pass simulated (and, where a workload has one, its
// serial reference).
type checker struct {
	first     map[string]string
	reference map[string]string
	norms     *norms
	attempted int
	failed    int
	errs      []string
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// merge adds a set-up child's outcome.
func (c *checker) merge(s *setupSample) {
	c.attempted += s.Attempted
	c.failed += s.Failed
	for _, e := range s.Errs {
		if len(c.errs) < maxErrs {
			c.errs = append(c.errs, "set-up child: "+e)
		}
	}
}

func (c *checker) observe(pr *passResult) {
	for _, r := range pr.runs {
		c.attempted++
		if r.err != nil {
			c.fail("%s: %v", r.label, r.err)
			continue
		}
		d := runDigest(r.result)
		if want, ok := c.first[r.label]; ok && want != d {
			c.fail("%s: simulated differently from the first pass", r.label)
			continue
		}
		c.first[r.label] = d
		if want, ok := c.reference[r.label]; ok && want != d {
			c.fail("%s: differs from the serial engine's run", r.label)
		}
	}
	for _, err := range pr.errs {
		c.fail("%v", err)
	}
	n := pr.norms()
	if c.norms == nil {
		c.norms = &n
	} else if *c.norms != n {
		c.fail("normalized metrics changed between passes")
	}
}

// passStats is the host-side measurement of one pass.
type passStats struct {
	wall    float64 // s
	allocs  float64 // objects
	bytes   float64
	peak    float64 // bytes
	gcs     float64
	cycles  float64     // simulated cycles, summed over the runs
	runMs   []float64   // host time of each run
	sweep   *sweepStats // reproduce-plan only
	result  *passResult // kept for the first traced pass only
	traced  bool
	cpu     map[string]int64
	allocBy map[string]int64
}

var runtimeSamples = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		out[i] = float64(s[i].Value.Uint64())
	}
	return out
}

// peakSampler polls the live heap size while a pass runs.
type peakSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startPeakSampler() *peakSampler {
	p := &peakSampler{stop: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > p.peak {
				p.peak = v
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// end stops the sampler and returns the peak it saw.
func (p *peakSampler) end() uint64 {
	close(p.stop)
	p.done.Wait()
	return p.peak
}

// allocProfile returns the process's allocation profile since start, and
// its attribution to modules by allocated objects, as of two completed GC
// cycles (the profile lags by up to two).
func allocProfile() ([]byte, map[string]int64, error) {
	runtime.GC()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, nil, err
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), p.attribute(0, moduleBucket), nil
}

// measure runs and measures one pass; with tr set it is a traced pass that
// also records spans and CPU and allocation profiles.
func measure(w *workload, b *bench, tr *tracer, dir string) (*passStats, error) {
	runtime.GC()
	ps := &passStats{traced: tr != nil}
	var allocBefore map[string]int64
	var cpuBuf bytes.Buffer
	if tr != nil {
		var err error
		if _, allocBefore, err = allocProfile(); err != nil {
			return nil, err
		}
		tr.run++
		b.tr = tr
		defer func() { b.tr = nil }()
		if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
			return nil, err
		}
	}
	before := readRuntime()
	sampler := startPeakSampler()
	t0 := time.Now()
	pr, err := w.pass(b)
	ps.wall = time.Since(t0).Seconds()
	ps.peak = float64(sampler.end())
	after := readRuntime()
	if tr != nil {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	ps.result, ps.sweep = pr, pr.sweep
	ps.allocs, ps.bytes, ps.gcs = after[0]-before[0], after[1]-before[1], after[2]-before[2]
	for _, r := range pr.runs {
		ps.runMs = append(ps.runMs, r.ms)
		if r.result != nil {
			ps.cycles += float64(r.result.ExecCycles)
		}
	}
	if tr == nil {
		return ps, nil
	}
	prof, err := parseProfile(cpuBuf.Bytes())
	if err != nil {
		return nil, err
	}
	ps.cpu = prof.attribute(0, cpuBucket)
	allocRaw, allocAfter, err := allocProfile()
	if err != nil {
		return nil, err
	}
	for name, data := range map[string][]byte{"cpu": cpuBuf.Bytes(), "allocs": allocRaw} {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.pb.gz", name, tr.run)), data, 0o644); err != nil {
			return nil, err
		}
	}
	ps.allocBy = make(map[string]int64)
	for k, v := range allocAfter {
		ps.allocBy[k] = v - allocBefore[k]
	}
	return ps, nil
}

func newBench(cfg config, w *workload, dir string) *bench {
	scale := w.scale
	if cfg.scale > 0 {
		scale = workloads.Scale(cfg.scale)
	}
	return &bench{seed: cfg.seed, scale: scale, dir: dir}
}

func outDir(cfg config) (string, error) {
	dir := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, btoi(cfg.trace)))
	return dir, os.MkdirAll(dir, 0o755)
}

// setupSample is one set-up child's report: its warm-up pass time and the
// outcome of the pass's runs.
type setupSample struct {
	Seconds   float64  `json:"seconds"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errs      []string `json:"errors"`
}

// warmupOnly is a set-up child: one warm-up pass in a fresh process.
func warmupOnly(cfg config) (*setupSample, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.out, "warmup-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	pr, err := w.pass(newBench(cfg, w, dir))
	s := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	c := &checker{first: map[string]string{}}
	c.observe(pr)
	return &setupSample{Seconds: s, Attempted: c.attempted, Failed: c.failed, Errs: c.errs}, nil
}

// childSetup runs the warm-up pass in a fresh child process.
func childSetup(cfg config) (*setupSample, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--warmup-child", "--workload", cfg.workload,
		"--seed", strconv.FormatInt(cfg.seed, 10), "--out", cfg.out)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("set-up child: %w", err)
	}
	var s setupSample
	if err := json.Unmarshal(out, &s); err != nil {
		return nil, fmt.Errorf("set-up child: %w", err)
	}
	return &s, nil
}

// runBenchmark measures one workload and returns the result line and the
// human-readable report.
func runBenchmark(cfg config) (*result, string, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, "", err
	}
	dir, err := outDir(cfg)
	if err != nil {
		return nil, "", err
	}
	b := newBench(cfg, w, dir)
	chk := &checker{first: map[string]string{}}

	// Set-up: the untimed warm-up pass, in this fresh process and in
	// children, so the median is over fresh processes only.
	t0 := time.Now()
	warm, err := w.pass(b)
	if err != nil {
		return nil, "", err
	}
	setup := []float64{time.Since(t0).Seconds()}
	if !cfg.trace {
		for i := 1; i < cfg.setupProcs; i++ {
			s, err := childSetup(cfg)
			if err != nil {
				return nil, "", err
			}
			setup = append(setup, s.Seconds)
			chk.merge(s)
		}
	}
	if w.reference != nil {
		if chk.reference, err = w.reference(b); err != nil {
			return nil, "", err
		}
	}
	chk.observe(warm)
	warm = nil

	// Timed region. A traced run alternates untraced and traced passes so
	// the tracing overhead is measured under the same host conditions.
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var plain, traced []*passStats
	start := time.Now()
	for i := 0; ; i++ {
		var passTracer *tracer
		if cfg.trace && i%2 == 1 {
			passTracer = tr
		}
		ps, err := measure(w, b, passTracer, dir)
		if err != nil {
			return nil, "", err
		}
		chk.observe(ps.result)
		if ps.traced {
			traced = append(traced, ps)
		} else {
			plain = append(plain, ps)
		}
		if !ps.traced || len(traced) > 1 {
			// Checked; only the first traced pass's runs feed the layer
			// metrics, and retained results would inflate later peaks.
			ps.result = nil
		}
		if time.Since(start).Seconds() >= cfg.seconds && (!cfg.trace || len(traced) > 0) {
			break
		}
	}

	vals := make(map[string]float64)
	var defs []metricDef
	if cfg.trace {
		defs = perLayer
		if err := layerMetrics(vals, w, b, plain, traced, tr); err != nil {
			return nil, "", err
		}
		if err := writeSpans(tr, dir); err != nil {
			return nil, "", err
		}
	} else {
		defs = endToEnd
		endToEndMetrics(vals, setup, plain, chk.norms)
	}

	res := &result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   make(map[string]metric),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	host := fingerprint(cfg, b)
	rep := report(res, defs, host, chk, len(plain), len(traced))
	samples := map[string][]float64{"setup_s": setup}
	for _, ps := range plain {
		samples["wall_s"] = append(samples["wall_s"], ps.wall)
	}
	for _, ps := range traced {
		samples["traced_wall_s"] = append(samples["traced_wall_s"], ps.wall)
	}
	if err := writeResult(dir, res, host, chk, samples); err != nil {
		return nil, "", err
	}
	return res, rep, nil
}

func endToEndMetrics(vals map[string]float64, setup []float64, plain []*passStats, n *norms) {
	pick := func(f func(*passStats) float64) float64 {
		xs := make([]float64, len(plain))
		for i, ps := range plain {
			xs[i] = f(ps)
		}
		return median(xs)
	}
	wall := pick(func(ps *passStats) float64 { return ps.wall })
	vals["setup_s"] = median(setup)
	vals["wall_s"] = wall
	vals["sim_cycles_per_s"] = plain[0].cycles / wall
	vals["allocs_m"] = pick(func(ps *passStats) float64 { return ps.allocs }) / 1e6
	vals["alloc_mb"] = pick(func(ps *passStats) float64 { return ps.bytes }) / 1e6
	vals["peak_heap_mb"] = pick(func(ps *passStats) float64 { return ps.peak }) / 1e6
	if n != nil {
		vals["sim_time_norm"], vals["traffic_norm"], vals["energy_norm"] = n.time, n.traffic, n.energy
	}
}

// layerMetrics fills the per-layer metrics. Counters come from the
// snapshots of the first traced pass (every pass simulates the same runs);
// host timings come from the untraced passes; CPU and allocation shares
// come from the profiles of all traced passes.
func layerMetrics(vals map[string]float64, w *workload, b *bench, plain, traced []*passStats, tr *tracer) error {
	pr := traced[0].result
	sum := func(pattern string) float64 {
		t := 0.0
		for _, r := range pr.runs {
			if r.result != nil {
				t += r.result.Snapshot.SumMatch(pattern)
			}
		}
		return t
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	cpu, allocBy := map[string]int64{}, map[string]int64{}
	for _, ps := range traced {
		for k, v := range ps.cpu {
			cpu[k] += v
		}
		for k, v := range ps.allocBy {
			allocBy[k] += v
		}
	}
	cpuTotal, allocTotal := 0.0, 0.0
	for _, v := range cpu {
		cpuTotal += float64(v)
	}
	for _, v := range allocBy {
		allocTotal += float64(v)
	}
	for _, m := range []string{"sim", "fabric", "gpu", "cache", "mem", "rdma", "stats", "core", "comp", "platform", "workloads", "gc", "alloc"} {
		vals[m+".cpu_share"] = ratio(float64(cpu[m]), cpuTotal)
	}
	vals["sim.cpu_share"] += ratio(float64(cpu[bucketBarrier]), cpuTotal)
	vals["sim.barrier_cpu_share"] = ratio(float64(cpu[bucketBarrier]), cpuTotal)
	for _, m := range []string{"sim", "fabric", "gpu"} {
		vals[m+".alloc_share"] = ratio(float64(allocBy[m]), allocTotal)
	}

	plainWall := make([]float64, len(plain))
	var runMs, gcs []float64
	for i, ps := range plain {
		plainWall[i] = ps.wall
		gcs = append(gcs, ps.gcs)
		runMs = append(runMs, ps.runMs...)
	}
	tracedWall := make([]float64, len(traced))
	for i, ps := range traced {
		tracedWall[i] = ps.wall
	}

	events := sum("sim/events_handled")
	windows := sum("sim/windows")
	vals["sim.events"] = events
	vals["sim.ns_per_event"] = ratio(median(plainWall)*1e9, events)
	vals["sim.events_per_cycle"] = ratio(events, sum("sim/cycles"))
	vals["sim.windows"] = windows
	vals["sim.events_per_window"] = ratio(events, windows)
	vals["sim.barrier_spins"] = sum("sim/barrier_spins")
	vals["sim.serial_fallback_windows"] = sum("sim/serial_fallback_windows")
	vals["sim.remote_msgs"] = sum("sim/remote_msgs")

	linkCycles := 0.0
	for _, r := range pr.runs {
		if r.result != nil {
			linkCycles += r.result.Snapshot.Value("fabric/links") * float64(r.result.ExecCycles)
		}
	}
	vals["fabric.bytes"] = sum("fabric/bytes")
	vals["fabric.messages"] = sum("fabric/messages")
	vals["fabric.utilization"] = ratio(sum("fabric/busy_cycles"), linkCycles)
	vals["fabric.hops"] = sum("fabric/hops")

	vals["gpu.compute_cycles"] = sum("gpu*/cu_*/compute_cycles")
	vals["gpu.wgs_retired"] = sum("gpu*/cu_*/wgs_retired")
	l1h, l2h := sum("gpu*/l1_*/hits"), sum("gpu*/l2_*/hits")
	vals["cache.l1_hit_rate"] = ratio(l1h, l1h+sum("gpu*/l1_*/misses"))
	vals["cache.l2_hit_rate"] = ratio(l2h, l2h+sum("gpu*/l2_*/misses"))
	vals["mem.dram_accesses"] = sum("gpu*/dram_*/reads") + sum("gpu*/dram_*/writes")

	lat := pr.readLatency()
	vals["rdma.remote_reads"] = sum("*/rdma/reads_sent")
	vals["rdma.remote_writes"] = sum("*/rdma/writes_sent")
	vals["rdma.read_latency_p50"] = lat.Percentile(50)
	vals["rdma.read_latency_p95"] = lat.Percentile(95)

	vals["core.sampling_rounds"] = sum("ctrl*/sampling_rounds")
	vals["core.bypass_rounds"] = sum("ctrl*/bypass_rounds")
	vals["comp.calls"] = float64(tr.codecs.calls) / float64(len(traced))
	vals["comp.ns_per_call"] = ratio(float64(tr.codecs.ns), float64(tr.codecs.calls))
	var raw, wire float64
	for _, r := range pr.runs {
		if r.result != nil && r.result.Policy != "none" {
			raw += r.result.Snapshot.Value("traffic/uncompressed_payload_bytes")
			wire += r.result.Snapshot.Value("traffic/payload_bytes")
		}
	}
	vals["comp.payload_ratio"] = ratio(raw, wire)

	vals["gc.cycles"] = median(gcs)
	vals["runner.run_ms.p50"] = median(runMs)
	vals["runner.runs"] = float64(len(pr.runs))

	vals["platform.build_ms"] = platformBuildMs(w, tr)
	var err error
	if vals["sim.sched_events_per_s"], err = schedEventsPerS(b.seed, tr); err != nil {
		return err
	}

	if pr.sweep != nil {
		var busy, journalMs, resumeMs []float64
		for _, ps := range plain {
			s := ps.sweep
			busy = append(busy, ratio(s.busyMs, sweepWorkers*s.prefetchMs))
			journalMs = append(journalMs, s.journalMs)
			resumeMs = append(resumeMs, s.resumeMs)
		}
		vals["sweep.simulated"] = float64(pr.sweep.progress.Simulated)
		vals["sweep.cache_hits"] = float64(pr.sweep.progress.CacheHits)
		vals["sweep.worker_busy_frac"] = median(busy)
		vals["sweep.journal_write_ms"] = median(journalMs)
		vals["sweep.journal_bytes"] = float64(pr.sweep.journalBytes)
		vals["sweep.resume_ms"] = median(resumeMs)
	}
	vals["trace.overhead_frac"] = median(tracedWall)/median(plainWall) - 1
	return nil
}

// platformBuildMs times a standalone platform.Build of each configuration
// the workload simulates (median of three builds each, summed).
func platformBuildMs(w *workload, tr *tracer) float64 {
	total := 0.0
	for _, cfg := range w.configs() {
		var ms []float64
		for i := 0; i < 3; i++ {
			sp := tr.start("platform.Build", 0, map[string]any{"gpus": cfg.NumGPUs, "topology": string(cfg.Fabric.Topology)})
			t0 := time.Now()
			platform.Build(cfg)
			ms = append(ms, msSince(t0))
			tr.end(sp)
		}
		total += median(ms)
	}
	return total
}

// schedEventsPerS runs the engine's synthetic schedules on one core: the
// event queue and dispatch alone, without any component model.
func schedEventsPerS(seed int64, tr *tracer) (float64, error) {
	events, secs := 0.0, 0.0
	for _, shape := range schedbench.Shapes {
		sp := tr.start("schedbench.Run", 0, map[string]any{"shape": string(shape)})
		t0 := time.Now()
		r, err := schedbench.Run(shape, seed, 1, 0)
		secs += time.Since(t0).Seconds()
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		events += float64(r.Events)
	}
	return events / secs, nil
}

func writeSpans(tr *tracer, dir string) error {
	f, err := os.Create(filepath.Join(dir, "spans.json"))
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostInfo identifies the host and the code a result was measured on.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Sources    string `json:"sources_sha256"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Scale      int    `json:"scale"`
}

func fingerprint(cfg config, b *bench) hostInfo {
	h := hostInfo{
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Sources: sourcesDigest(),
		Workload: cfg.workload, Seed: cfg.seed, Scale: int(b.scale),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func report(res *result, defs []metricDef, host hostInfo, chk *checker, plain, traced int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "workload %s seed %d scale %d: %d untraced + %d traced passes\n",
		host.Workload, host.Seed, host.Scale, plain, traced)
	fmt.Fprintf(&sb, "host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, sources %s\n",
		host.CPU, host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.Commit, host.Sources)
	for _, d := range defs {
		fmt.Fprintf(&sb, "  %-30s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(&sb, "  %-30s %16.6g frac (%d failed of %d runs)\n", "failed_frac",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, e := range chk.errs {
		fmt.Fprintf(&sb, "FAILED: %s\n", e)
	}
	return sb.String()
}

func writeResult(dir string, res *result, host hostInfo, chk *checker, samples map[string][]float64) error {
	b, err := json.MarshalIndent(map[string]any{
		"host": host, "result": res, "errors": chk.errs, "samples": samples,
		"failed_frac": float64(res.Failed) / float64(res.Attempted),
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(b, '\n'), 0o644)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sourcesDigest fingerprints the simulator sources the benchmark was built
// from, which identifies the code where no git metadata exists.
func sourcesDigest() string {
	h := sha256.New()
	for _, root := range []string{"go.mod", "internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
			h.Write(data)
			return nil
		})
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
