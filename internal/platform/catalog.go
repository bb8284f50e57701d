package platform

import (
	"time"

	"repro/internal/rng"
)

// This file is the platform catalog: constructors for the three machines
// of the paper's evaluation (Table II), parameterized with the latencies
// the paper reports and launch models calibrated to reproduce the Fig. 3
// shape — plus the mixed-shape hetero campus, which combines a fat GPU
// partition with a thin CPU partition so heterogeneous pilots and
// fragmentation-aware placement can be exercised at figure scale.

// Paper §IV-C measured latencies.
const (
	// DeltaInterNodeLatency: "inter-node-latency: 0.063 ms +/- 0.014 ms".
	deltaInterNodeLatencyMean = 63 * time.Microsecond
	deltaInterNodeLatencyStd  = 14 * time.Microsecond
	// DeltaToR3Latency: "node-to-node-latency: 0.47 ms +/- 0.04 ms".
	deltaToR3LatencyMean = 470 * time.Microsecond
	deltaToR3LatencyStd  = 40 * time.Microsecond
)

// frontierLaunchSaturation is the concurrency beyond which Fig. 3 shows a
// growing system-level (MPI startup) launch overhead.
const frontierLaunchSaturation = 160

func localLatency(mean, std time.Duration) rng.DurationDist {
	return rng.NormalDuration(mean, std)
}

// newFrontier models an OLCF Frontier partition large enough for the
// paper's Exp 1 pilot: 640 GPUs = 80 nodes × 8 GPUs (AMD MI250X GCDs), 64
// cores and 512 GB per node. The launch model produces near-constant
// per-instance launch overhead up to 160 concurrent launches and a
// super-linear penalty beyond, as observed in Fig. 3.
func newFrontier() *Platform {
	p := New("frontier", 80, NodeSpec{Cores: 64, GPUs: 8, MemGB: 512})
	p.IntraNodeLatency = localLatency(5*time.Microsecond, 1*time.Microsecond)
	p.LocalLatency = localLatency(70*time.Microsecond, 15*time.Microsecond)
	p.WANLatency["r3"] = rng.NormalDuration(deltaToR3LatencyMean, deltaToR3LatencyStd)
	p.Launch = LaunchModel{
		Base:       rng.NormalDuration(2200*time.Millisecond, 300*time.Millisecond),
		Saturation: frontierLaunchSaturation,
		PenaltyExp: 1.6,
	}
	return p
}

// newDelta models the NCSA Delta partition of Exp 2/3: a 256-core /
// 16-GPU pilot is 4 nodes × 64 cores × 4 A100s, 256 GB per node.
func newDelta() *Platform {
	p := New("delta", 4, NodeSpec{Cores: 64, GPUs: 4, MemGB: 256})
	p.IntraNodeLatency = localLatency(5*time.Microsecond, 1*time.Microsecond)
	p.LocalLatency = localLatency(deltaInterNodeLatencyMean, deltaInterNodeLatencyStd)
	p.WANLatency["r3"] = rng.NormalDuration(deltaToR3LatencyMean, deltaToR3LatencyStd)
	p.Launch = LaunchModel{
		Base:       rng.NormalDuration(1800*time.Millisecond, 250*time.Millisecond),
		Saturation: 64,
		PenaltyExp: 1.5,
	}
	return p
}

// newR3 models the R3 cloud server that hosts the remote, persistent model
// services: one large node with enough GPUs for the 16-service sweeps.
// Remote services are persistent (the paper does not measure their BT), so
// the launch model is nominal.
func newR3() *Platform {
	p := New("r3", 1, NodeSpec{Cores: 128, GPUs: 16, MemGB: 1024})
	p.IntraNodeLatency = localLatency(5*time.Microsecond, 1*time.Microsecond)
	p.LocalLatency = localLatency(20*time.Microsecond, 4*time.Microsecond)
	p.WANLatency["delta"] = rng.NormalDuration(deltaToR3LatencyMean, deltaToR3LatencyStd)
	p.WANLatency["frontier"] = rng.NormalDuration(deltaToR3LatencyMean, deltaToR3LatencyStd)
	p.Launch = LaunchModel{
		Base:       rng.NormalDuration(500*time.Millisecond, 100*time.Millisecond),
		Saturation: 0,
	}
	return p
}

// Hetero-campus node shapes: the fat partition is R3-class (128 cores,
// 16 GPUs), the thin partition is a diskless CPU blade. The fat
// partition comes first in node order on purpose — index-ordered
// first-fit placement then fragments the fat nodes with small tasks,
// which is exactly the failure mode best-fit placement is for.
var (
	// heteroFatSpec is the hetero campus's GPU-partition node shape.
	heteroFatSpec = NodeSpec{Cores: 128, GPUs: 16, MemGB: 1024}
	// heteroThinSpec is the hetero campus's CPU-partition node shape.
	heteroThinSpec = NodeSpec{Cores: 16, GPUs: 0, MemGB: 64}
)

// Hetero-campus partition sizes.
const (
	// heteroFatNodes is the number of fat (GPU) nodes in the campus.
	heteroFatNodes = 32
	// heteroThinNodes is the number of thin (CPU) nodes in the campus.
	heteroThinNodes = 96
)

// newHeteroCampus models a mixed-shape campus cluster — the kind of
// machine the paper's three single-shape testbeds bracket but never
// combine: a fat GPU partition (32 × 128 cores/16 GPUs/1024 GB) in front
// of a thin CPU partition (96 × 16 cores/64 GB, no GPUs) behind one
// batch system. It exists to exercise heterogeneous pilots end to end:
// whole-campus pilots span both shapes, and the fragmentation ablation
// (`rpexp -exp frag`) compares first-fit against best-fit placement on
// it at figure scale.
func newHeteroCampus() *Platform {
	p := NewMixed("hetero", []NodeGroup{
		{Count: heteroFatNodes, Spec: heteroFatSpec},
		{Count: heteroThinNodes, Spec: heteroThinSpec},
	})
	p.IntraNodeLatency = localLatency(5*time.Microsecond, 1*time.Microsecond)
	p.LocalLatency = localLatency(90*time.Microsecond, 20*time.Microsecond)
	p.WANLatency["r3"] = rng.NormalDuration(deltaToR3LatencyMean, deltaToR3LatencyStd)
	p.Launch = LaunchModel{
		Base:       rng.NormalDuration(2000*time.Millisecond, 300*time.Millisecond),
		Saturation: 128,
		PenaltyExp: 1.5,
	}
	return p
}

// DefaultTopology wires the three paper platforms plus the mixed-shape
// hetero campus into one topology with the Delta↔R3 WAN latency as the
// default wide-area link.
func DefaultTopology() *Topology {
	t := NewTopology(newFrontier(), newDelta(), newR3(), newHeteroCampus())
	t.DefaultWAN = rng.NormalDuration(deltaToR3LatencyMean, deltaToR3LatencyStd)
	return t
}
