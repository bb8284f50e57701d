package metrics

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// BenchmarkCollectorContention measures concurrent Add throughput with
// every goroutine writing its own series — the load-harness pattern where
// per-worker latency streams share one collector, whose per-series
// locking only touches the collector-level lock on the read path.
func BenchmarkCollectorContention(b *testing.B) {
	names := make([]string, runtime.GOMAXPROCS(0))
	for i := range names {
		names[i] = fmt.Sprintf("worker.%02d", i)
	}
	c := NewCollector()
	var next sync.Map
	b.RunParallel(func(pb *testing.PB) {
		name := names[0]
		for i := range names {
			if _, taken := next.LoadOrStore(i, true); !taken {
				name = names[i]
				break
			}
		}
		for pb.Next() {
			c.Add(name, time.Millisecond)
		}
	})
}

// BenchmarkCollectorSingleSeries is the pathological shared-series case:
// per-series locking cannot help here.
func BenchmarkCollectorSingleSeries(b *testing.B) {
	c := NewCollector()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add("shared", time.Millisecond)
		}
	})
}
