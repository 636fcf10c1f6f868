package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"mgpucompress/internal/comp"
)

// span is one timed call into a module, held in memory until the run ends.
type span struct {
	id, parent, run int
	name            string
	start, dur      time.Duration // start is relative to the tracer's origin
	args            map[string]any
	open            time.Time
}

// tracer records the traced passes' spans. A nil *tracer records nothing,
// so untraced passes run the same code with no span overhead. Sweep
// workers record concurrently, hence the mutex.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	run    int // the pass being traced
	spans  []span
	codecs codecCounters
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span under parent (0 = a root) and returns its id.
func (t *tracer) start(name string, parent int, args map[string]any) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		id: len(t.spans) + 1, parent: parent, run: t.run, name: name,
		start: now.Sub(t.origin), args: args, open: now,
	})
	return len(t.spans)
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.dur = now.Sub(sp.open)
}

// child records an already measured span under parent. Used for the codec
// calls of one run, which are too many to record one by one: the span
// starts with the run and lasts as long as all its codec calls together.
func (t *tracer) child(parent int, name string, start time.Time, total time.Duration, args map[string]any) {
	id := t.start(name, parent, args)
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.start, sp.dur = start.Sub(t.origin), total
}

// writeChrome writes the spans as Chrome trace-event JSON (one track per
// traced pass), with the span ids and parents in the event arguments.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, sp := range t.spans {
		args := map[string]any{"id": sp.id, "parent": sp.parent, "run": sp.run}
		for k, v := range sp.args {
			args[k] = v
		}
		events = append(events, event{
			Name: sp.name, Ph: "X", Pid: 1, Tid: sp.run,
			Ts: float64(sp.start) / 1e3, Dur: float64(sp.dur) / 1e3, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}

// codecCounters counts and times the comp.Compressor calls of forwarding
// codecs. Only serial runs use them, so the counters need no locking.
type codecCounters struct {
	calls int64
	ns    time.Duration
}

func (c *codecCounters) add(o *codecCounters) {
	c.calls += o.calls
	c.ns += o.ns
}

func (c *codecCounters) observe(t0 time.Time) {
	c.calls++
	c.ns += time.Since(t0)
}

// wrap returns forwarding codecs that report to c.
func (c *codecCounters) wrap(codecs []comp.Compressor) []comp.Compressor {
	out := make([]comp.Compressor, len(codecs))
	for i, codec := range codecs {
		out[i] = timedCodec{codec, c}
	}
	return out
}

// timedCodec forwards every call to the wrapped codec and times the ones
// that do work. Algorithm and Cost come through the embedded interface.
type timedCodec struct {
	comp.Compressor
	c *codecCounters
}

func (t timedCodec) Compress(line []byte) comp.Encoded {
	defer t.c.observe(time.Now())
	return t.Compressor.Compress(line)
}

func (t timedCodec) CompressInto(dst, line []byte) comp.Encoded {
	defer t.c.observe(time.Now())
	return t.Compressor.CompressInto(dst, line)
}

func (t timedCodec) CompressedBits(line []byte) int {
	defer t.c.observe(time.Now())
	return t.Compressor.CompressedBits(line)
}

func (t timedCodec) Decompress(enc comp.Encoded) ([]byte, error) {
	defer t.c.observe(time.Now())
	return t.Compressor.Decompress(enc)
}
