// Package stager implements the data-management layer of the runtime: the
// DataManager of the paper's Fig. 2 plus the agent-side input/output
// stagers. It models the three movement mechanisms the LUCID use cases
// need — intra-platform copies, constant-time links, and wide-area
// (Globus-like) transfers such as the Cell Painting pipeline's ~1.6 TB
// dataset — with bandwidth- and latency-parameterized links, and it keeps
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

	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/spec"
)

// Link models one storage path (e.g. "delta" → "frontier", or local disk).
type Link struct {
	// BytesPerSec is the sustained transfer bandwidth.
	BytesPerSec float64
	// Latency is the per-operation setup cost (negotiation, metadata).
	Latency rng.DurationDist
}

// Manager is the DataManager: it owns link profiles and the staged-object
// registry. All methods are safe for concurrent use.
type Manager struct {
	clock simtime.Clock
	src   *rng.Source

	mu      sync.Mutex
	links   map[string]Link // key "src→dst" platform pair, or "*" default
	objects map[string]Object
	waiters []*objWaiter
}

// Object records one staged data object.
type Object struct {
	URI      string
	Bytes    int64
	StagedAt time.Time
}

type objWaiter struct {
	prefix   string
	minBytes int64
	open     simtime.Latch // guarded by Manager.mu
}

// defaultLocalBandwidth is used for copies when no link matches
// (node-local NVMe-class storage).
const defaultLocalBandwidth = 2e9 // 2 GB/s

// defaultWANBandwidth approximates a Globus transfer over a production
// WAN.
const defaultWANBandwidth = 1.25e9 // 10 Gb/s

// NewManager returns a Manager with sensible default links.
func NewManager(clock simtime.Clock, src *rng.Source) *Manager {
	return &Manager{
		clock:   clock,
		src:     src,
		links:   make(map[string]Link),
		objects: make(map[string]Object),
	}
}

// SetLink registers the link used for transfers from platform src to dst.
// Use "*" for either side as a wildcard.
func (m *Manager) SetLink(src, dst string, link Link) {
	m.mu.Lock()
	m.links[src+"→"+dst] = link
	m.mu.Unlock()
}

// linkFor resolves the most specific link for a platform pair.
func (m *Manager) linkFor(src, dst string) (Link, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, key := range []string{src + "→" + dst, src + "→*", "*→" + dst, "*→*"} {
		if l, ok := m.links[key]; ok {
			return l, true
		}
	}
	return Link{}, false
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
		link, ok := m.linkFor(srcPlat, dstPlat)
		if !ok {
			bw := defaultLocalBandwidth
			if d.Mode == spec.StageTransfer || srcPlat != dstPlat {
				bw = defaultWANBandwidth
			}
			link = Link{BytesPerSec: bw, Latency: rng.ConstDuration(50 * time.Millisecond)}
		}
		dur = link.Latency.Sample(m.src)
		if link.BytesPerSec > 0 && d.Bytes > 0 {
			dur += time.Duration(float64(d.Bytes) / link.BytesPerSec * float64(time.Second))
		}
	}
	if dur > 0 {
		m.clock.Sleep(dur)
	}
	m.register(Object{URI: d.Target, Bytes: d.Bytes, StagedAt: m.clock.Now()})
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

func (m *Manager) register(obj Object) {
	m.mu.Lock()
	m.objects[obj.URI] = obj
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

// Lookup returns the staged object at uri.
func (m *Manager) Lookup(uri string) (Object, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	o, ok := m.objects[uri]
	return o, ok
}

func (m *Manager) bytesUnderLocked(prefix string) int64 {
	var total int64
	for uri, o := range m.objects {
		if strings.HasPrefix(uri, prefix) {
			total += o.Bytes
		}
	}
	return total
}

// BytesUnder sums the sizes of staged objects whose URI has the prefix.
func (m *Manager) BytesUnder(prefix string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytesUnderLocked(prefix)
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
