package platform

import (
	"fmt"
	"strings"

	"mgpucompress/internal/metrics"
)

// Stats aggregates the platform's hardware counters after a run — the
// hit rates, access counts and utilizations a simulator user reaches for
// first when a number looks off. It is a view over a metrics.Snapshot: every
// field is derived from registry samples, so it can never disagree with a
// -metrics-out file from the same run.
type Stats struct {
	ExecCycles uint64 `json:"exec_cycles"`

	L1Hits      uint64 `json:"l1_hits"`
	L1Misses    uint64 `json:"l1_misses"`
	L1Coalesced uint64 `json:"l1_coalesced"`
	L1Bypassed  uint64 `json:"l1_bypassed"`
	L2Hits      uint64 `json:"l2_hits"`
	L2Misses    uint64 `json:"l2_misses"`
	DRAMReads   uint64 `json:"dram_reads"`
	DRAMWrites  uint64 `json:"dram_writes"`

	RDMAReadsSent    uint64 `json:"rdma_reads_sent"`
	RDMAWritesSent   uint64 `json:"rdma_writes_sent"`
	RDMAReadsServed  uint64 `json:"rdma_reads_served"`
	RDMAWritesServed uint64 `json:"rdma_writes_served"`

	WGsRetired     uint64  `json:"wgs_retired"`
	MemOpsIssued   uint64  `json:"mem_ops_issued"`
	FabricBytes    uint64  `json:"fabric_bytes"`
	FabricMessages uint64  `json:"fabric_messages"`
	FabricUtil     float64 `json:"fabric_util"`

	RemoteCacheHits   uint64 `json:"remote_cache_hits,omitempty"`
	RemoteCacheMisses uint64 `json:"remote_cache_misses,omitempty"`
	HasRemoteCache    bool   `json:"has_remote_cache,omitempty"`
}

// The glob sums StatsFromSnapshot takes, by index into statsPatterns.
const (
	sumL1Hits = iota
	sumL1Misses
	sumL1Coalesced
	sumL1Bypassed
	sumL2Hits
	sumL2Misses
	sumDRAMReads
	sumDRAMWrites
	sumRDMAReadsSent
	sumRDMAWritesSent
	sumRDMAReadsServed
	sumRDMAWritesServed
	sumWGsRetired
	sumMemReads
	sumMemWrites
	sumL15Hits
	sumL15Misses
	numSums
)

var statsPatterns = [numSums]string{
	sumL1Hits:      "gpu*/l1_*/hits",
	sumL1Misses:    "gpu*/l1_*/misses",
	sumL1Coalesced: "gpu*/l1_*/coalesced",
	sumL1Bypassed:  "gpu*/l1_*/bypassed",
	sumL2Hits:      "gpu*/l2_*/hits",
	sumL2Misses:    "gpu*/l2_*/misses",
	sumDRAMReads:   "gpu*/dram_*/reads",
	sumDRAMWrites:  "gpu*/dram_*/writes",

	// "*/rdma/..." covers the per-GPU engines and the host engine.
	sumRDMAReadsSent:    "*/rdma/reads_sent",
	sumRDMAWritesSent:   "*/rdma/writes_sent",
	sumRDMAReadsServed:  "*/rdma/reads_served",
	sumRDMAWritesServed: "*/rdma/writes_served",

	sumWGsRetired: "gpu*/cu_*/wgs_retired",
	sumMemReads:   "gpu*/cu_*/mem_reads_issued",
	sumMemWrites:  "gpu*/cu_*/mem_writes_issued",

	sumL15Hits:   "gpu*/l15/hits",
	sumL15Misses: "gpu*/l15/misses",
}

var statsGlobs = metrics.NewGlobs(statsPatterns[:]...)

// StatsFromSnapshot derives the aggregate view from a metrics snapshot,
// using the registry's hierarchical paths ("gpu1/l2_0/hits") via glob
// aggregation. All glob sums come from one walk of the snapshot
// (metrics.Snapshot.Tally), bit-identical to one SumMatch per pattern.
func StatsFromSnapshot(s metrics.Snapshot) Stats {
	var sum [numSums]float64
	var count [numSums]int
	s.Tally(statsGlobs, sum[:], count[:])
	st := Stats{
		ExecCycles: uint64(s.Value("sim/cycles")),

		L1Hits:      uint64(sum[sumL1Hits]),
		L1Misses:    uint64(sum[sumL1Misses]),
		L1Coalesced: uint64(sum[sumL1Coalesced]),
		L1Bypassed:  uint64(sum[sumL1Bypassed]),
		L2Hits:      uint64(sum[sumL2Hits]),
		L2Misses:    uint64(sum[sumL2Misses]),
		DRAMReads:   uint64(sum[sumDRAMReads]),
		DRAMWrites:  uint64(sum[sumDRAMWrites]),

		RDMAReadsSent:    uint64(sum[sumRDMAReadsSent]),
		RDMAWritesSent:   uint64(sum[sumRDMAWritesSent]),
		RDMAReadsServed:  uint64(sum[sumRDMAReadsServed]),
		RDMAWritesServed: uint64(sum[sumRDMAWritesServed]),

		WGsRetired:     uint64(sum[sumWGsRetired]),
		MemOpsIssued:   uint64(sum[sumMemReads] + sum[sumMemWrites]),
		FabricBytes:    uint64(s.Value("fabric/bytes")),
		FabricMessages: uint64(s.Value("fabric/messages")),

		RemoteCacheHits:   uint64(sum[sumL15Hits]),
		RemoteCacheMisses: uint64(sum[sumL15Misses]),
		HasRemoteCache:    count[sumL15Hits] > 0,
	}
	// Same expression the fabrics use (busy/elapsed, averaged over links),
	// with the divisions in the same order so the floats match bit for bit.
	if cycles := s.Value("sim/cycles"); cycles > 0 {
		if links := s.Value("fabric/links"); links > 0 {
			st.FabricUtil = s.Value("fabric/busy_cycles") / cycles / links
		}
	}
	return st
}

// CollectStats gathers the counters from the platform's metric registry.
func (p *Platform) CollectStats() Stats {
	return StatsFromSnapshot(p.Metrics.Snapshot())
}

// directStats walks the component structs and sums their counter fields —
// the pre-registry aggregation path, kept as a test oracle proving the
// snapshot view neither drops nor double counts anything.
func (p *Platform) directStats() Stats {
	s := Stats{
		ExecCycles:     uint64(p.ExecCycles()),
		FabricBytes:    p.Bus.TotalBytes(),
		FabricMessages: p.Bus.TotalMessages(),
		FabricUtil:     p.Bus.Utilization(p.ExecCycles()),
	}
	for _, dev := range p.GPUs {
		for _, l1 := range dev.L1s {
			s.L1Hits += l1.Hits
			s.L1Misses += l1.Misses
			s.L1Coalesced += l1.Coalesced
			s.L1Bypassed += l1.Bypassed
		}
		for _, l2 := range dev.L2s {
			s.L2Hits += l2.Hits
			s.L2Misses += l2.Misses
		}
		for _, d := range dev.DRAMs {
			s.DRAMReads += d.Reads
			s.DRAMWrites += d.Writes
		}
		for _, cu := range dev.CUs {
			s.WGsRetired += cu.WGsRetired
			s.MemOpsIssued += cu.MemReadsIssued + cu.MemWritesIssued
		}
		s.RDMAReadsSent += dev.RDMA.ReadsSent
		s.RDMAWritesSent += dev.RDMA.WritesSent
		s.RDMAReadsServed += dev.RDMA.ReadsServed
		s.RDMAWritesServed += dev.RDMA.WritesServed
		if dev.RemoteCache != nil {
			s.HasRemoteCache = true
			s.RemoteCacheHits += dev.RemoteCache.Hits
			s.RemoteCacheMisses += dev.RemoteCache.Misses
		}
	}
	// The host RDMA's kernel-argument writes are served by GPU RDMAs too.
	s.RDMAReadsSent += p.HostRDMA.ReadsSent
	s.RDMAWritesSent += p.HostRDMA.WritesSent
	s.RDMAReadsServed += p.HostRDMA.ReadsServed
	s.RDMAWritesServed += p.HostRDMA.WritesServed
	return s
}

func rate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// L1HitRate is hits over lookups (bypassed remote accesses excluded).
func (s Stats) L1HitRate() float64 { return rate(s.L1Hits, s.L1Misses) }

// L2HitRate is hits over lookups.
func (s Stats) L2HitRate() float64 { return rate(s.L2Hits, s.L2Misses) }

// String renders the counter report.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "exec cycles        %d\n", s.ExecCycles)
	fmt.Fprintf(&sb, "workgroups retired %d   CU memory ops %d\n", s.WGsRetired, s.MemOpsIssued)
	fmt.Fprintf(&sb, "L1: %d hits / %d misses (%.1f%%), %d coalesced, %d remote bypasses\n",
		s.L1Hits, s.L1Misses, 100*s.L1HitRate(), s.L1Coalesced, s.L1Bypassed)
	if s.HasRemoteCache {
		fmt.Fprintf(&sb, "L1.5 (remote): %d hits / %d misses (%.1f%%)\n",
			s.RemoteCacheHits, s.RemoteCacheMisses, 100*rate(s.RemoteCacheHits, s.RemoteCacheMisses))
	}
	fmt.Fprintf(&sb, "L2: %d hits / %d misses (%.1f%%)\n", s.L2Hits, s.L2Misses, 100*s.L2HitRate())
	fmt.Fprintf(&sb, "DRAM: %d reads, %d writes\n", s.DRAMReads, s.DRAMWrites)
	fmt.Fprintf(&sb, "RDMA: sent %d reads / %d writes, served %d reads / %d writes\n",
		s.RDMAReadsSent, s.RDMAWritesSent, s.RDMAReadsServed, s.RDMAWritesServed)
	fmt.Fprintf(&sb, "fabric: %d messages, %d bytes, %.0f%% busy\n",
		s.FabricMessages, s.FabricBytes, 100*s.FabricUtil)
	return sb.String()
}
