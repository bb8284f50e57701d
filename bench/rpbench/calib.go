package main

import (
	"math"
	"time"
)

// The benchmark's host is a small shared VM whose speed drifts by tens of
// percent over minutes: the same binary measured 6.5 k, 4.5 k and 10 k
// tcp_large requests per second in runs a few minutes apart, with no steal
// time reported. Most of that drift is in how long it takes one thread to
// wake another, which is what every workload here does all the time. No
// amount of averaging inside a run removes a drift slower than the run.
//
// hostProbe therefore times a fixed kernel that uses nothing of the
// program under test, only the Go runtime: two goroutines handing a token
// back and forth over unbuffered channels. The workloads sample it between
// rounds, and every wall-clock end-to-end metric is scaled by the slowdown
// measured around the round it came from, so the reported figure is the one
// the run would have shown on a host running at hostRefNs per hand-off. A
// change to the repository cannot move the kernel, so it cannot hide in the
// scaling; a change of Go version or host type shifts every metric by one
// factor and needs a new baseline, as it would anyway.
//
// Every wall-clock figure is scaled by the kernel's slowdown one to one.
// An earlier fit gave the tcp_* workloads smaller exponents (0.5 and 0.75:
// part of each request is spent in the kernel's TCP stack). Four later sets
// of ten runs per workload, on a day when the kernel read 0.9 to 2.9, fit
// 1 for them as for the in-process workloads: the medians of the four
// tcp_small sets were 53% apart as measured, 24% apart at exponent 0.5 and
// 6% apart at 1 (tcp_large: 40%, 11% at 0.75, 3% at 1), and the spread
// inside each set shrank as well. One exponent for all also means there is
// nothing to tune per workload.
//
// See bench/README.md, "Reference host speed".

const (
	// hostRefNs is the hand-off time that counts as slowdown 1: the quiet
	// baseline host's.
	hostRefNs = 600
	// hostProbeHandoffs is the round trips one sample times, about 15 ms.
	hostProbeHandoffs = 25000
)

type hostProbe struct {
	ping, pong chan struct{}
	stop       chan struct{}
	samples    []float64 // every kernel slowdown sampled, for the record
	last       float64   // what the latest Sample returned
}

func newHostProbe() *hostProbe {
	p := &hostProbe{ping: make(chan struct{}), pong: make(chan struct{}), stop: make(chan struct{})}
	go func() {
		for {
			select {
			case <-p.ping:
				p.pong <- struct{}{}
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

// Close stops the probe's partner goroutine.
func (p *hostProbe) Close() { close(p.stop) }

// Sample times the kernel once and returns the host's slowdown against the
// reference host: 1.2 means wall-clock figures are 20% worse just now than
// they would be there.
func (p *hostProbe) Sample() float64 {
	t := time.Now()
	for i := 0; i < hostProbeHandoffs; i++ {
		p.ping <- struct{}{}
		<-p.pong
	}
	p.last = float64(time.Since(t)) / hostProbeHandoffs / hostRefNs
	p.samples = append(p.samples, p.last)
	return p.last
}

// Lap samples again and returns the slowdown to apply to the work done
// since the previous sample: the geometric mean of the two.
func (p *hostProbe) Lap() float64 {
	before := p.last
	return math.Sqrt(before * p.Sample())
}
