package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func TestRecorderJSONRoundTrip(t *testing.T) {
	r := &Recorder{Cap: 2}
	r.Record(Span{Track: "kernel", Name: "fir", Cat: "kernel", Start: 10, End: 90})
	r.Record(Span{Track: "ctrl0", Name: "sampling", Cat: "phase", Start: 0, End: 64,
		Args: map[string]string{"selected": "BDI"}})
	r.Record(Span{Track: "kernel", Name: "overflow", Start: 90, End: 91})
	if r.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", r.Dropped())
	}

	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var got Recorder
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Dropped() != 1 {
		t.Errorf("dropped lost in round trip: %d", got.Dropped())
	}
	if got.Cap != 2 || !reflect.DeepEqual(got.Spans(), r.Spans()) {
		t.Errorf("round trip mismatch:\n  %+v\n  %+v", got.Spans(), r.Spans())
	}
}

func TestLogJSONRoundTripPreservesDropped(t *testing.T) {
	l := Log{Cap: 1}
	l.Record(Transfer{Start: 1, End: 5, Src: "GPU0", Dst: "GPU1", Bytes: 64, Kind: "ReadReq"})
	l.Record(Transfer{Start: 5, End: 9, Src: "GPU1", Dst: "GPU0", Bytes: 64, Kind: "ReadRsp"})
	l.Record(Transfer{Start: 9, End: 13, Src: "GPU0", Dst: "GPU1", Bytes: 64, Kind: "ReadReq"})
	if l.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", l.Dropped())
	}

	b, err := json.Marshal(&l)
	if err != nil {
		t.Fatal(err)
	}
	var got Log
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Dropped() != 2 {
		t.Errorf("Dropped accounting lost in export: got %d, want 2", got.Dropped())
	}
	if got.Cap != 1 || !reflect.DeepEqual(got.Transfers(), l.Transfers()) {
		t.Errorf("round trip mismatch:\n  %+v\n  %+v", got, l)
	}
}

func TestTransferJSONRoundTrip(t *testing.T) {
	in := Transfer{Start: 3, End: 17, Src: "GPU2.RDMA", Dst: "Host.RDMA", Bytes: 256, Kind: "WriteReq"}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"start"`, `"end"`, `"src"`, `"dst"`, `"bytes"`, `"kind"`} {
		if !bytes.Contains(b, []byte(key)) {
			t.Errorf("marshal lacks %s field: %s", key, b)
		}
	}
	var out Transfer
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip = %+v, want %+v", out, in)
	}
}

func TestLogSpans(t *testing.T) {
	var l Log
	l.Record(Transfer{Start: 2, End: 8, Src: "GPU0", Dst: "GPU1", Bytes: 128, Kind: "ReadReq"})
	spans := l.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	s := spans[0]
	if s.Track != "fabric" || s.Name != "ReadReq" || s.Cat != "transfer" ||
		s.Start != 2 || s.End != 8 {
		t.Errorf("span = %+v", s)
	}
	want := map[string]string{"src": "GPU0", "dst": "GPU1", "bytes": "128"}
	if !reflect.DeepEqual(s.Args, want) {
		t.Errorf("args = %v, want %v", s.Args, want)
	}
}

func TestExportChrome(t *testing.T) {
	procs := []Process{{
		Name: "wl=FIR",
		Spans: []Span{
			{Track: "kernel", Name: "fir", Cat: "kernel", Start: 0, End: 100},
			{Track: "ctrl0", Name: "sampling", Cat: "phase", Start: 0, End: 64},
			{Track: "fabric", Name: "ReadReq", Cat: "transfer", Start: 5, End: 5}, // zero width
		},
	}}
	var buf bytes.Buffer
	if err := ExportChrome(&buf, procs); err != nil {
		t.Fatal(err)
	}

	var file struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   *uint64           `json:"ts"`
			Dur  uint64            `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	// 1 process_name + 3 thread_name metadata events + 3 X events.
	if len(file.TraceEvents) != 7 {
		t.Fatalf("events = %d, want 7", len(file.TraceEvents))
	}
	if e := file.TraceEvents[0]; e.Ph != "M" || e.Name != "process_name" || e.Args["name"] != "wl=FIR" {
		t.Errorf("first event = %+v, want process_name metadata", e)
	}
	// Tracks get tids in sorted-name order: ctrl0=0, fabric=1, kernel=2.
	tids := map[string]int{}
	for _, e := range file.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			tids[e.Args["name"]] = e.Tid
		}
	}
	want := map[string]int{"ctrl0": 0, "fabric": 1, "kernel": 2}
	if !reflect.DeepEqual(tids, want) {
		t.Errorf("track tids = %v, want %v", tids, want)
	}
	for _, e := range file.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if e.Ts == nil {
			t.Errorf("X event %q lacks ts field (must be emitted even at 0)", e.Name)
		}
		if e.Dur == 0 {
			t.Errorf("X event %q has zero dur; viewers drop it", e.Name)
		}
		if e.Name == "fir" && e.Tid != 2 {
			t.Errorf("kernel span tid = %d, want 2", e.Tid)
		}
	}

	var buf2 bytes.Buffer
	if err := ExportChrome(&buf2, procs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("ExportChrome is not deterministic for equal input")
	}
}
