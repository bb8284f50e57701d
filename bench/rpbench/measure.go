package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// durQuantileUS returns the q-quantile of sorted durations in microseconds.
func durQuantileUS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))]) / 1e3
}

// procCounters is a snapshot of the process-wide counters the per-op
// figures are deltas of.
type procCounters struct {
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	cpu        time.Duration // user+sys of this process
}

func readCounters() procCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPauseNs:  ms.PauseTotalNs,
		cpu:        cpuTime(syscall.RUSAGE_SELF),
	}
}

func (a procCounters) sub(b procCounters) procCounters {
	return procCounters{
		mallocs:    a.mallocs - b.mallocs,
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcPauseNs:  a.gcPauseNs - b.gcPauseNs,
		cpu:        a.cpu - b.cpu,
	}
}

func (a procCounters) add(b procCounters) procCounters {
	return procCounters{
		mallocs:    a.mallocs + b.mallocs,
		allocBytes: a.allocBytes + b.allocBytes,
		gcCycles:   a.gcCycles + b.gcCycles,
		gcPauseNs:  a.gcPauseNs + b.gcPauseNs,
		cpu:        a.cpu + b.cpu,
	}
}

func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the getrusage high-water mark of this process, plus that of
// its reaped children when withChildren is set (the tcp_* agent). Linux
// reports ru_maxrss in KiB.
func peakRSSMB(withChildren bool) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	kb := ru.Maxrss
	if withChildren {
		if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err == nil {
			kb += ru.Maxrss
		}
	}
	return float64(kb) / 1024
}

func heapInuseMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// goroutineSampler records the peak goroutine count, sampled every 100 ms.
type goroutineSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak int
}

func startGoroutineSampler() *goroutineSampler {
	s := &goroutineSampler{stop: make(chan struct{}), peak: runtime.NumGoroutine()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if n := runtime.NumGoroutine(); n > s.peak {
					s.peak = n
				}
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak seen.
func (s *goroutineSampler) Stop() int {
	close(s.stop)
	s.wg.Wait()
	return s.peak
}
