// Package metrics is the unified observability layer of the simulator: a
// typed, allocation-light registry in which every component — the event
// engine, the fabric, caches, DRAM channels, RDMA engines, compression
// controllers — registers its counters under a hierarchical slash-separated
// path ("gpu1/l2_0/hits", "fabric/bytes", "ctrl3/sampling_rounds") at
// construction time.
//
// A Snapshot freezes every registered metric into a sorted, JSON-stable
// sample list. Because components register closures over the same counter
// fields they already maintain, a snapshot equals the hand-aggregated stats
// by construction — there is exactly one source of truth per counter, so
// the reporting layers (platform.Stats, runner.Result, sweep journals)
// cannot double count.
//
// Determinism contract: snapshots of equal simulations marshal to identical
// bytes. Sample order is the sorted path order (never map order), values
// are pure functions of the simulation, and the registry records no wall
// time.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Metric kinds as they appear in Sample.Kind.
const (
	KindCounter = "counter"
	KindGauge   = "gauge"
	KindDist    = "dist"
)

// Counter is a monotonically increasing count.
type Counter struct{ n uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Gauge is an instantaneous value.
type Gauge struct{ v float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add adjusts the value by d.
func (g *Gauge) Add(d float64) { g.v += d }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// DistValue is the frozen summary of a distribution.
type DistValue struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Mean returns Sum/Count (0 when empty).
func (d DistValue) Mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return d.Sum / float64(d.Count)
}

// Distribution accumulates observations into a constant-space summary.
type Distribution struct{ d DistValue }

// Observe folds one value in.
func (t *Distribution) Observe(v float64) {
	if t.d.Count == 0 || v < t.d.Min {
		t.d.Min = v
	}
	if t.d.Count == 0 || v > t.d.Max {
		t.d.Max = v
	}
	t.d.Count++
	t.d.Sum += v
}

// Value returns the current summary.
func (t *Distribution) Value() DistValue { return t.d }

// Sample is one metric frozen at snapshot time. For counters and gauges the
// measurement is Value; for distributions it is Dist (Value then carries the
// sum, so aggregation helpers work uniformly).
type Sample struct {
	Path  string     `json:"path"`
	Kind  string     `json:"kind"`
	Value float64    `json:"value"`
	Dist  *DistValue `json:"dist,omitempty"`
}

// Registry maps hierarchical paths to metrics. It is not safe for
// concurrent use: like the simulation engine, it belongs to a single
// simulation goroutine. The zero value is not usable; call NewRegistry.
type Registry struct {
	paths []string
	read  map[string]func() Sample
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{read: make(map[string]func() Sample)}
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int { return len(r.paths) }

func (r *Registry) register(p, kind string, read func() Sample) {
	if p == "" || strings.HasPrefix(p, "/") || strings.HasSuffix(p, "/") {
		panic(fmt.Sprintf("metrics: invalid path %q", p))
	}
	if _, dup := r.read[p]; dup {
		panic(fmt.Sprintf("metrics: duplicate path %q", p))
	}
	r.paths = append(r.paths, p)
	r.read[p] = read
}

// Counter registers and returns an owned counter at p.
func (r *Registry) Counter(p string) *Counter {
	c := &Counter{}
	r.CounterFunc(p, c.Value)
	return c
}

// CounterFunc registers a counter read through fn — the form components use
// to expose a counter field they already maintain, keeping one source of
// truth per count.
func (r *Registry) CounterFunc(p string, fn func() uint64) {
	r.register(p, KindCounter, func() Sample {
		return Sample{Path: p, Kind: KindCounter, Value: float64(fn())}
	})
}

// Gauge registers and returns an owned gauge at p.
func (r *Registry) Gauge(p string) *Gauge {
	g := &Gauge{}
	r.GaugeFunc(p, g.Value)
	return g
}

// GaugeFunc registers a gauge read through fn.
func (r *Registry) GaugeFunc(p string, fn func() float64) {
	r.register(p, KindGauge, func() Sample {
		return Sample{Path: p, Kind: KindGauge, Value: fn()}
	})
}

// Distribution registers and returns an owned distribution at p.
func (r *Registry) Distribution(p string) *Distribution {
	d := &Distribution{}
	r.DistributionFunc(p, d.Value)
	return d
}

// DistributionFunc registers a distribution read through fn.
func (r *Registry) DistributionFunc(p string, fn func() DistValue) {
	r.register(p, KindDist, func() Sample {
		d := fn()
		return Sample{Path: p, Kind: KindDist, Value: d.Sum, Dist: &d}
	})
}

// Snapshot freezes every metric into a path-sorted sample list.
func (r *Registry) Snapshot() Snapshot {
	paths := append([]string(nil), r.paths...)
	sort.Strings(paths)
	s := make(Snapshot, 0, len(paths))
	for _, p := range paths {
		s = append(s, r.read[p]())
	}
	return s
}

// Snapshot is a path-sorted, JSON-round-trippable view of a registry at one
// instant. Equal simulations produce byte-identical marshals regardless of
// worker count or scheduling.
type Snapshot []Sample

// Get returns the sample at path, if present.
func (s Snapshot) Get(path string) (Sample, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Path >= path })
	if i < len(s) && s[i].Path == path {
		return s[i], true
	}
	return Sample{}, false
}

// Value returns the measurement at path (0 when absent).
func (s Snapshot) Value(path string) float64 {
	smp, ok := s.Get(path)
	if !ok {
		return 0
	}
	return smp.Value
}

// matchSegment reports whether one path segment matches one pattern segment.
// A mismatch after a '*' retries with the star swallowing one more byte, so
// the loop is linear in practice for the one- and two-star segments of
// metric patterns.
func matchSegment(pat, seg string) bool {
	i, j := 0, 0
	star, retry := -1, 0 // pattern index after the last '*', seg index it resumes from
	for j < len(seg) {
		switch {
		case i < len(pat) && pat[i] == '*':
			i++
			star, retry = i, j
		case i < len(pat) && pat[i] == seg[j]:
			i++
			j++
		case star >= 0:
			retry++
			i, j = star, retry
		default:
			return false
		}
	}
	for i < len(pat) && pat[i] == '*' {
		i++
	}
	return i == len(pat)
}

// SumMatch sums the measurements of every sample whose path matches the
// glob pattern (for distributions, their sums). A pattern such as
// "gpu*/l1_*/hits" matches a path with as many segments whose segments match
// one by one, where '*' matches any run of characters inside a segment
// (never a '/') and every other byte is literal: path.Match on such
// patterns.
func (s Snapshot) SumMatch(pattern string) float64 {
	sum, _ := s.tallyOne(pattern)
	return sum
}

// CountMatch returns how many sample paths match the glob pattern.
func (s Snapshot) CountMatch(pattern string) int {
	_, n := s.tallyOne(pattern)
	return n
}

// tallyOne is Tally for a single pattern.
func (s Snapshot) tallyOne(pattern string) (float64, int) {
	var sum [1]float64
	var n [1]int
	s.Tally(NewGlobs(pattern), sum[:], n[:])
	return sum[0], n[0]
}

// Globs is a fixed list of patterns compiled for Tally: each pattern is split
// into segments once, and patterns ending in a literal leaf ("hits") are
// indexed by it, so a path is only matched against the patterns that can
// take it.
type Globs struct {
	globs  []glob
	byLeaf map[string][]int // literal leaf -> indexes of the globs ending in it
	wild   []int            // indexes of the globs whose leaf holds a '*'
}

// glob is one pattern split into segments.
type glob struct{ segs []string }

// NewGlobs compiles patterns; Tally reports on them in this order.
func NewGlobs(patterns ...string) *Globs {
	g := &Globs{byLeaf: make(map[string][]int)}
	for k, pattern := range patterns {
		gl := glob{segs: strings.Split(pattern, "/")}
		g.globs = append(g.globs, gl)
		if leaf := gl.segs[len(gl.segs)-1]; !strings.Contains(leaf, "*") {
			g.byLeaf[leaf] = append(g.byLeaf[leaf], k)
		} else {
			g.wild = append(g.wild, k)
		}
	}
	return g
}

// match reports whether a path already split into segments matches.
func (gl *glob) match(segs []string) bool {
	if len(segs) != len(gl.segs) {
		return false
	}
	for i, seg := range segs {
		if !matchSegment(gl.segs[i], seg) {
			return false
		}
	}
	return true
}

// Tally is SumMatch and CountMatch for every pattern of g in one walk of the
// snapshot: each candidate path is split into segments once, and its
// measurement is added to sums[k] and counted in counts[k] for every pattern
// k it matches. Sums accumulate in snapshot order, so sums[k] is
// bit-identical to SumMatch of pattern k. sums and counts need one entry per
// pattern and are added to, not reset.
func (s Snapshot) Tally(g *Globs, sums []float64, counts []int) {
	var buf [8]string
	for _, smp := range s {
		cand := g.byLeaf[smp.Path[strings.LastIndexByte(smp.Path, '/')+1:]]
		if len(cand) == 0 && len(g.wild) == 0 {
			continue
		}
		segs := splitPath(buf[:0], smp.Path)
		for _, ks := range [2][]int{cand, g.wild} {
			for _, k := range ks {
				if g.globs[k].match(segs) {
					sums[k] += smp.Value
					counts[k]++
				}
			}
		}
	}
}

// splitPath appends the slash-separated segments of p to segs.
func splitPath(segs []string, p string) []string {
	for {
		seg, rest, more := strings.Cut(p, "/")
		segs = append(segs, seg)
		if !more {
			return segs
		}
		p = rest
	}
}

// WriteJSON writes the snapshot as indented JSON with a trailing newline —
// the -metrics-out file format. The bytes are a pure function of the
// snapshot, so equal runs diff clean.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
