package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

func TestCounterGaugeDistribution(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a/count")
	g := r.Gauge("a/gauge")
	d := r.Distribution("a/dist")

	c.Inc()
	c.Add(4)
	g.Set(2.5)
	for _, v := range []float64{3, 1, 2} {
		d.Observe(v)
	}

	s := r.Snapshot()
	if got := s.Value("a/count"); got != 5 {
		t.Errorf("counter = %v, want 5", got)
	}
	if got := s.Value("a/gauge"); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}
	smp, ok := s.Get("a/dist")
	if !ok || smp.Dist == nil {
		t.Fatalf("missing dist sample: %+v", smp)
	}
	want := DistValue{Count: 3, Sum: 6, Min: 1, Max: 3}
	if *smp.Dist != want {
		t.Errorf("dist = %+v, want %+v", *smp.Dist, want)
	}
	if smp.Dist.Mean() != 2 {
		t.Errorf("mean = %v, want 2", smp.Dist.Mean())
	}
}

func TestFuncMetricsReadLive(t *testing.T) {
	r := NewRegistry()
	n := uint64(0)
	r.CounterFunc("live/count", func() uint64 { return n })
	r.GaugeFunc("live/gauge", func() float64 { return float64(n) * 0.5 })

	n = 8
	s := r.Snapshot()
	if got := s.Value("live/count"); got != 8 {
		t.Errorf("CounterFunc read %v, want 8 (must read the live variable)", got)
	}
	if got := s.Value("live/gauge"); got != 4 {
		t.Errorf("GaugeFunc read %v, want 4", got)
	}
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	for _, p := range []string{"z/last", "a/first", "m/mid", "a/second"} {
		r.Counter(p)
	}
	s := r.Snapshot()
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i].Path < s[j].Path }) {
		t.Errorf("snapshot not sorted by path: %+v", s)
	}
	if len(s) != 4 || r.Len() != 4 {
		t.Errorf("len = %d / %d, want 4", len(s), r.Len())
	}
}

func TestDuplicatePathPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("dup/path")
	r.Counter("dup/path")
}

func TestInvalidPathPanics(t *testing.T) {
	for _, p := range []string{"", "/lead", "trail/"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("path %q did not panic", p)
				}
			}()
			NewRegistry().Counter(p)
		}()
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("gpu0/l1_0/hits").Add(10)
	r.Gauge("fabric/util").Set(0.375)
	d := r.Distribution("gpu0/rdma/read_latency")
	d.Observe(100)
	d.Observe(260)

	s1 := r.Snapshot()
	b1, err := json.Marshal(s1)
	if err != nil {
		t.Fatal(err)
	}
	var s2 Snapshot
	if err := json.Unmarshal(b1, &s2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("round trip mismatch:\n  %+v\n  %+v", s1, s2)
	}
	b2, err := json.Marshal(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("re-marshal differs:\n  %s\n  %s", b1, b2)
	}

	var buf1, buf2 bytes.Buffer
	if err := s1.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Error("WriteJSON is not deterministic across snapshots of the same state")
	}
}

func TestMatchHelpers(t *testing.T) {
	r := NewRegistry()
	r.Counter("gpu0/l1_0/hits").Add(1)
	r.Counter("gpu0/l1_1/hits").Add(2)
	r.Counter("gpu1/l1_0/hits").Add(4)
	r.Counter("gpu0/l15/hits").Add(100) // remote cache: must not match l1_*
	r.Counter("gpu0/l2_0/hits").Add(200)
	s := r.Snapshot()

	if got := s.SumMatch("gpu*/l1_*/hits"); got != 7 {
		t.Errorf("SumMatch(l1) = %v, want 7", got)
	}
	if got := s.CountMatch("gpu*/l1_*/hits"); got != 3 {
		t.Errorf("CountMatch(l1) = %v, want 3", got)
	}
	if got := s.SumMatch("gpu*/l15/hits"); got != 100 {
		t.Errorf("SumMatch(l15) = %v, want 100", got)
	}
	if got := s.SumMatch("nothing/*"); got != 0 {
		t.Errorf("SumMatch(none) = %v, want 0", got)
	}
	if _, ok := s.Get("gpu0/l1_0/hits"); !ok {
		t.Error("Get missed an existing path")
	}
	if _, ok := s.Get("absent"); ok {
		t.Error("Get found an absent path")
	}
}
