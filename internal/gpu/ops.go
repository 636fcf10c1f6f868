// Package gpu models the compute side of the simulated multi-GPU system:
// compute units executing wavefront operation streams, per-GPU command
// processors, and the host driver that presents the four GPUs as a single
// logical device (Sec. II) — dispatching each kernel's workgroups
// round-robin across all CUs of all GPUs (Sec. VI-A) and shipping kernel
// argument blocks over the same fabric that carries inter-GPU data
// (Sec. VI-B).
//
// Instead of executing GCN3 machine code, workloads express each kernel as
// per-wavefront operation streams (compute delays, coalesced line reads and
// writes, barriers) over real addresses with real data. See DESIGN.md for
// why this substitution preserves the paper's measurements.
package gpu

import "fmt"

// Op is a single wavefront-level operation.
type Op interface{ isOp() }

// ComputeOp models ALU work: the wavefront stays busy for Cycles.
type ComputeOp struct {
	Cycles int
}

func (ComputeOp) isOp() {}

// ReadOp is a coalesced memory read of N bytes at Addr (normally one
// 64-byte line). The wavefront blocks until the data returns; if Then is
// non-nil it is invoked with the data and may emit follow-up operations,
// which execute before the rest of the wavefront's stream. This is how
// data-dependent kernels (e.g. gradient averaging) are expressed. The CU
// executes the returned slice in place, so Then must hand over a slice it
// will not modify afterwards.
type ReadOp struct {
	Addr uint64
	N    int
	Then func(data []byte) []Op
}

func (ReadOp) isOp() {}

// WriteOp is a posted memory write. The wavefront continues immediately;
// the workgroup only completes once every posted write is acknowledged.
type WriteOp struct {
	Addr uint64
	Data []byte
}

func (WriteOp) isOp() {}

// BarrierOp synchronizes all wavefronts of the workgroup: every wavefront
// must reach the barrier and all of the workgroup's posted writes must be
// acknowledged before any wavefront proceeds (s_barrier + s_waitcnt).
type BarrierOp struct{}

func (BarrierOp) isOp() {}

// Kernel describes one device-wide launch.
type Kernel struct {
	// Name identifies the kernel in traces.
	Name string
	// NumWorkgroups is the grid size in workgroups.
	NumWorkgroups int
	// Program returns the operation streams of workgroup wg, one per
	// wavefront. It is called when the workgroup is activated on a CU.
	Program func(wg int) [][]Op
	// Args is the kernel argument block the driver writes into each GPU's
	// memory before the launch. Pointers, sizes and padding dominate these
	// bytes, which is exactly the zero-heavy launch metadata the paper
	// observes dominating BS traffic.
	Args []byte
}

// Validate checks the kernel is well-formed.
func (k *Kernel) Validate() error {
	if k.NumWorkgroups <= 0 {
		return fmt.Errorf("gpu: kernel %q has %d workgroups", k.Name, k.NumWorkgroups)
	}
	if k.Program == nil {
		return fmt.Errorf("gpu: kernel %q has no program", k.Name)
	}
	return nil
}
