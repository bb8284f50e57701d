// Package stager implements the data-management layer of the runtime: the
// DataManager of the paper's Fig. 2 plus the agent-side input/output
// stagers. It models the three movement mechanisms the LUCID use cases
// need — intra-platform copies, constant-time links, and wide-area
// (Globus-like) transfers such as the Cell Painting pipeline's ~1.6 TB
// dataset — at a fixed bandwidth and setup latency per mechanism, and it keeps
// a registry of staged objects so pipelines can gate on data availability
// ("training ... starting only when sufficient processed data are
// available", §II-A).
package stager

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/simtime"
	"repro/internal/spec"
)

// Manager is the DataManager: it owns the staged-object registry. All
// methods are safe for concurrent use.
type Manager struct {
	clock simtime.Clock

	mu      sync.Mutex
	objects map[string]int64 // staged bytes by URI
	waiters []*objWaiter
}

type objWaiter struct {
	prefix   string
	minBytes int64
	open     simtime.Latch // guarded by Manager.mu
}

// localBandwidth is the bandwidth of a copy within one platform
// (node-local NVMe-class storage).
const localBandwidth = 2e9 // 2 GB/s

// wanBandwidth approximates a Globus transfer over a production WAN; a copy
// between platforms and every transfer move at it.
const wanBandwidth = 1.25e9 // 10 Gb/s

// copyLatency is the setup cost of one copy or transfer (negotiation,
// metadata).
const copyLatency = 50 * time.Millisecond

// NewManager returns a Manager staging on clock.
func NewManager(clock simtime.Clock) *Manager {
	return &Manager{clock: clock, objects: make(map[string]int64)}
}

// splitURI parses "platform:/path" into its parts. URIs without a platform
// prefix belong to the local platform "".
func splitURI(uri string) (platform, path string) {
	if i := strings.Index(uri, ":/"); i >= 0 {
		return uri[:i], uri[i+1:]
	}
	return "", uri
}

// Stage executes one directive, blocking for the modelled duration, and
// registers the target object. It returns the time spent.
func (m *Manager) Stage(d spec.StagingDirective) (time.Duration, error) {
	if err := d.Validate(); err != nil {
		return 0, fmt.Errorf("stager: %w", err)
	}
	srcPlat, _ := splitURI(d.Source)
	dstPlat, _ := splitURI(d.Target)

	var dur time.Duration
	switch d.Mode {
	case spec.StageLink:
		dur = time.Millisecond // constant-time metadata operation
	case spec.StageCopy, spec.StageTransfer:
		bw := localBandwidth
		if d.Mode == spec.StageTransfer || srcPlat != dstPlat {
			bw = wanBandwidth
		}
		dur = copyLatency
		if d.Bytes > 0 {
			dur += time.Duration(float64(d.Bytes) / bw * float64(time.Second))
		}
	}
	if dur > 0 {
		m.clock.Sleep(dur)
	}
	m.register(d.Target, d.Bytes)
	return dur, nil
}

// StageAll executes directives sequentially (input staging order matters:
// later directives may depend on earlier ones). It returns the total time.
func (m *Manager) StageAll(ds []spec.StagingDirective) (time.Duration, error) {
	var total time.Duration
	for _, d := range ds {
		dur, err := m.Stage(d)
		total += dur
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func (m *Manager) register(uri string, bytes int64) {
	m.mu.Lock()
	m.objects[uri] = bytes
	// wake waiters whose predicate now holds
	var keep []*objWaiter
	for _, w := range m.waiters {
		if m.bytesUnderLocked(w.prefix) >= w.minBytes {
			w.open.Fire()
		} else {
			keep = append(keep, w)
		}
	}
	m.waiters = keep
	m.mu.Unlock()
}

func (m *Manager) bytesUnderLocked(prefix string) int64 {
	var total int64
	for uri, bytes := range m.objects {
		if strings.HasPrefix(uri, prefix) {
			total += bytes
		}
	}
	return total
}

// WaitBytes blocks until at least minBytes of data are staged under prefix
// — the §II-A gate "training ... starting only when sufficient processed data
// are available" — or ctx ends, whose error it then returns. On a virtual
// clock the caller must be registered: it parks until the staging that opens
// the gate.
func (m *Manager) WaitBytes(ctx context.Context, prefix string, minBytes int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bytesUnderLocked(prefix) >= minBytes {
		return nil
	}
	w := &objWaiter{prefix: prefix, minBytes: minBytes}
	m.waiters = append(m.waiters, w)
	err := w.open.Wait(ctx, m.clock, &m.mu)
	if err != nil {
		i := slices.Index(m.waiters, w)
		m.waiters = slices.Delete(m.waiters, i, i+1)
	}
	return err
}
