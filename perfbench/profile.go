package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file attributes pprof profiles to the simulator's modules. It decodes
// the few fields of the profile.proto wire format it needs (samples,
// locations, functions, strings), so the benchmark stays standard-library
// only.

// internalPrefix is the import-path prefix of the simulator's modules.
const internalPrefix = "mgpucompress/internal/"

// profile is a decoded pprof profile: per sample, its stack (leaf first,
// inlined frames expanded) and its values.
type profile struct {
	stacks [][]string
	values [][]int64
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]int64{}    // function id → name string index
		strs    []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locs[loc] {
				if idx, ok := funcs[fn]; ok && idx >= 0 && int(idx) < len(strs) {
					stack = append(stack, strs[idx])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.values = append(p.values, s.values)
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// appendVarints appends a repeated varint field, which arrives either as
// one value or packed into bytes.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// Buckets of the CPU attribution besides the module names.
const (
	bucketGC      = "gc"
	bucketAlloc   = "alloc"
	bucketBarrier = "sim.barrier"
	bucketOther   = "other"
)

// gcFrames mark a sample as garbage-collector work, wherever it sits.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
}

// barrierFrames are the parallel engine's window-barrier loops: samples whose
// innermost simulator frame is one of them were spent waiting or spinning,
// not simulating.
var barrierFrames = map[string]bool{
	internalPrefix + "sim.(*Engine).runJobs":    true,
	internalPrefix + "sim.(*Engine).worker":     true,
	internalPrefix + "sim.(*Engine).windowWork": true,
}

// moduleOf returns the simulator module a frame belongs to ("" outside
// internal/). Sub-packages fold into their parent (sim/schedbench → sim) and
// the bit-stream helpers into the codecs.
func moduleOf(frame string) string {
	rest, ok := strings.CutPrefix(frame, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	if rest == "bitstream" {
		return "comp"
	}
	return rest
}

// cpuBucket classifies one CPU sample into exactly one bucket: GC work,
// allocation, the innermost simulator module on the stack, or other.
func cpuBucket(stack []string) string {
	for _, f := range stack {
		if gcFrames[f] {
			return bucketGC
		}
	}
	for _, f := range stack {
		if f == "runtime.mallocgc" {
			return bucketAlloc
		}
	}
	return moduleBucket(stack)
}

// moduleBucket names the innermost simulator module on the stack. A sample
// that reaches one of the benchmark's own frames (package main, such as the
// timing codec wrappers) before any simulator frame is the benchmark's cost,
// not its caller's, and goes to other.
func moduleBucket(stack []string) string {
	for _, f := range stack {
		if strings.HasPrefix(f, "main.") {
			return bucketOther
		}
		if m := moduleOf(f); m != "" {
			if barrierFrames[f] {
				return bucketBarrier
			}
			return m
		}
	}
	return bucketOther
}

// attribute sums one sample value per bucket.
func (p *profile) attribute(valueIndex int, bucket func([]string) string) map[string]int64 {
	out := make(map[string]int64)
	for i, stack := range p.stacks {
		if valueIndex < len(p.values[i]) {
			out[bucket(stack)] += p.values[i][valueIndex]
		}
	}
	return out
}
