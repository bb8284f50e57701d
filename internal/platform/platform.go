// Package platform models the computing platforms of the paper's
// evaluation: OLCF Frontier (local bootstrap scaling, Exp 1), NCSA Delta
// (local NOOP/llama scaling, Exp 2/3), and R3, a cloud server hosting
// remote model services. A platform is a set of nodes with cores, GPUs and
// memory, an interconnect latency distribution, WAN latency distributions
// to other platforms, and a launch-overhead model reproducing the paper's
// observed system-level startup behaviour.
package platform

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/msgq"
	"repro/internal/rng"
)

// NodeSpec describes the hardware of one node type.
type NodeSpec struct {
	Cores int
	GPUs  int
	MemGB float64
}

// Covers reports whether a node of this shape could ever satisfy the
// per-node demand — the one admission predicate shared by the
// scheduler's satisfiability check and the shape-aware task routers, so
// both layers agree on what fits.
func (s NodeSpec) Covers(cores, gpus int, memGB float64) bool {
	return s.Cores >= cores && s.GPUs >= gpus && s.MemGB >= memGB
}

// NodeGroup is a run of identically shaped nodes inside a platform.
// Mixed-shape platforms (NewMixed) are described as an ordered list of
// groups; Shapes reports the same structure back for any node set.
type NodeGroup struct {
	Count int
	Spec  NodeSpec
}

// Node is one allocatable machine. All methods are safe for concurrent
// use.
//
// Free capacity is tracked in maintained counters updated on every
// allocation and release, so capacity queries are O(1) instead of O(slots)
// scans over the slot bitmaps — the scheduler reads these counters on
// every placement attempt.
type Node struct {
	name string
	spec NodeSpec

	mu        sync.Mutex
	coreUsed  []bool
	gpuUsed   []bool
	freeCores int
	freeGPUs  int
	memUsedGB float64
}

// NewNode returns an idle node.
func NewNode(name string, spec NodeSpec) *Node {
	n := new(Node)
	n.init(name, spec, make([]bool, spec.Cores+spec.GPUs))
	return n
}

// init makes *n an idle node whose slot bitmaps, cores then GPUs, are slots
// (spec.Cores+spec.GPUs long, all false): its own or a share of a
// platform's.
func (n *Node) init(name string, spec NodeSpec, slots []bool) {
	*n = Node{
		name:      name,
		spec:      spec,
		coreUsed:  slots[:spec.Cores:spec.Cores],
		gpuUsed:   slots[spec.Cores:],
		freeCores: spec.Cores,
		freeGPUs:  spec.GPUs,
	}
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Spec returns the node hardware description.
func (n *Node) Spec() NodeSpec { return n.spec }

// FreeCores returns the number of unallocated cores.
func (n *Node) FreeCores() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.freeCores
}

// FreeGPUs returns the number of unallocated GPUs.
func (n *Node) FreeGPUs() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.freeGPUs
}

// FreeMemGB returns the unallocated memory.
func (n *Node) FreeMemGB() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.spec.MemGB - n.memUsedGB
}

// Free returns the node's free cores, GPUs and memory in one lock
// acquisition — the scheduler's index refresh reads all three per node.
func (n *Node) Free() (cores, gpus int, memGB float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.freeCores, n.freeGPUs, n.spec.MemGB - n.memUsedGB
}

// Allocation records resources held on one node. Release it exactly once;
// an allocation a scheduler granted goes back through Scheduler.Release,
// which keeps the scheduler's capacity index exact.
type Allocation struct {
	node  *Node
	Cores []int
	GPUs  []int
	MemGB float64

	releaseOnce sync.Once
	// slots backs Cores and GPUs of an allocation of this many slots or
	// fewer, which is most tasks: no second object.
	slots [4]int
}

// Node returns the node the allocation lives on.
func (a *Allocation) Node() *Node { return a.node }

// Release returns the allocation's resources to the node. Safe to call
// more than once; only the first call has effect.
func (a *Allocation) Release() {
	a.releaseOnce.Do(func() {
		a.node.mu.Lock()
		defer a.node.mu.Unlock()
		for _, c := range a.Cores {
			a.node.coreUsed[c] = false
		}
		for _, g := range a.GPUs {
			a.node.gpuUsed[g] = false
		}
		a.node.freeCores += len(a.Cores)
		a.node.freeGPUs += len(a.GPUs)
		a.node.memUsedGB -= a.MemGB
	})
}

// TryAlloc attempts to allocate cores, gpus and memGB on the node,
// returning nil when the node cannot satisfy the request. Slot indices are
// assigned lowest-first, which keeps placements deterministic. The
// feasibility check reads the maintained free counters (O(1)); only an
// accepted allocation pays the slot scan.
func (n *Node) TryAlloc(cores, gpus int, memGB float64) *Allocation {
	if cores < 0 || gpus < 0 || memGB < 0 {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.freeCores < cores || n.freeGPUs < gpus {
		return nil
	}
	if n.spec.MemGB-n.memUsedGB < memGB {
		return nil
	}
	a := &Allocation{node: n, MemGB: memGB}
	if slots := cores + gpus; slots > 0 {
		// one backing array for both slot lists: in place when it fits,
		// a single allocation when not
		buf := a.slots[:0]
		if slots > len(a.slots) {
			buf = make([]int, 0, slots)
		}
		for i := 0; i < len(n.coreUsed) && len(buf) < cores; i++ {
			if !n.coreUsed[i] {
				n.coreUsed[i] = true
				buf = append(buf, i)
			}
		}
		a.Cores = buf[:len(buf):len(buf)]
		for i := 0; i < len(n.gpuUsed) && len(buf) < slots; i++ {
			if !n.gpuUsed[i] {
				n.gpuUsed[i] = true
				buf = append(buf, i)
			}
		}
		a.GPUs = buf[len(a.Cores):]
	}
	n.freeCores -= cores
	n.freeGPUs -= gpus
	n.memUsedGB += memGB
	return a
}

// LaunchModel reproduces the paper's Fig. 3 launch-time behaviour: launch
// overhead per service instance is roughly constant up to Saturation
// concurrent launches, beyond which a system-level (MPI startup) penalty
// grows super-linearly with concurrency.
type LaunchModel struct {
	// Base is the per-instance launch overhead at low concurrency.
	Base rng.DurationDist
	// Saturation is the concurrency beyond which the penalty applies
	// (observed ~160 on Frontier).
	Saturation int
	// PenaltyExp shapes the super-linear growth factor
	// (concurrency/Saturation)^PenaltyExp applied to the base mean.
	PenaltyExp float64
}

// Penalty returns the system-level startup penalty added to the base
// launch overhead when `concurrent` instances launch together.
func (m LaunchModel) Penalty(concurrent int) time.Duration {
	if m.Saturation <= 0 || concurrent <= m.Saturation {
		return 0
	}
	factor := math.Pow(float64(concurrent)/float64(m.Saturation), m.PenaltyExp)
	return time.Duration(float64(m.Base.Mean()) * (factor - 1))
}

// Platform is a named set of nodes plus its latency topology.
type Platform struct {
	name  string
	nodes []*Node

	// LocalLatency is the one-way node-to-node latency inside the
	// platform.
	LocalLatency rng.DurationDist
	// IntraNodeLatency is the one-way latency between endpoints on the
	// same node (loopback / shared memory).
	IntraNodeLatency rng.DurationDist
	// WANLatency maps a remote platform name to the one-way latency of
	// the wide-area link.
	WANLatency map[string]rng.DurationDist
	// Launch models service/task launch overhead.
	Launch LaunchModel
}

// New assembles a platform of n identical nodes.
func New(name string, n int, spec NodeSpec) *Platform {
	if n <= 0 {
		panic(fmt.Sprintf("platform: %s with %d nodes", name, n))
	}
	return NewMixed(name, []NodeGroup{{Count: n, Spec: spec}})
}

// NewMixed assembles a heterogeneous platform from an ordered list of
// node groups. Nodes are numbered consecutively across groups, so group
// order is placement order for index-based (first-fit) schedulers: a
// fragmentation-sensitive catalog entry puts its large nodes first to
// expose the first-fit failure mode that best-fit placement avoids.
//
// Node i is named fmt.Sprintf("%s-node%04d", name, i). The nodes are one
// array, their slot bitmaps another and their names substrings of one
// string, so a platform costs the same few allocations at any size.
func NewMixed(name string, groups []NodeGroup) *Platform {
	total, slots := 0, 0
	for _, g := range groups {
		if g.Count <= 0 {
			panic(fmt.Sprintf("platform: %s group with %d nodes", name, g.Count))
		}
		total += g.Count
		slots += g.Count * (g.Spec.Cores + g.Spec.GPUs)
	}
	if total == 0 {
		panic(fmt.Sprintf("platform: %s with no node groups", name))
	}
	// Node i's name is a substring of the one string the builder spells:
	// grown once to the widest name times the count, it never moves.
	var digits [20]byte
	widest := len(name) + len("-node") + max(4, len(strconv.AppendInt(digits[:0], int64(total-1), 10)))
	var names strings.Builder
	names.Grow(total * widest)
	nodes, used := make([]Node, total), make([]bool, slots)
	p := &Platform{
		name:       name,
		nodes:      make([]*Node, total),
		WANLatency: make(map[string]rng.DurationDist),
	}
	i := 0
	for _, g := range groups {
		k := g.Spec.Cores + g.Spec.GPUs
		for range g.Count {
			start := names.Len()
			names.WriteString(name)
			names.WriteString("-node")
			d := strconv.AppendInt(digits[:0], int64(i), 10)
			for range 4 - len(d) {
				names.WriteByte('0')
			}
			names.Write(d)
			nodes[i].init(names.String()[start:], g.Spec, used[:k:k])
			p.nodes[i], used = &nodes[i], used[k:]
			i++
		}
	}
	return p
}

// Name returns the platform name.
func (p *Platform) Name() string { return p.name }

// Nodes returns the platform's nodes (the slice is shared; nodes are
// individually thread-safe).
func (p *Platform) Nodes() []*Node { return p.nodes }

// Shapes returns the platform's node composition as consecutive runs of
// identical specs, in node order.
func (p *Platform) Shapes() []NodeGroup { return ShapesOf(p.nodes) }

// ShapesOf compresses a node list into consecutive runs of identical
// specs, in node order. Pilots use it to report the shape mix of their
// virtual node view; a single-group result means a homogeneous pool.
func ShapesOf(nodes []*Node) []NodeGroup {
	var groups []NodeGroup
	for _, n := range nodes {
		if len(groups) > 0 && groups[len(groups)-1].Spec == n.spec {
			groups[len(groups)-1].Count++
			continue
		}
		groups = append(groups, NodeGroup{Count: 1, Spec: n.spec})
	}
	return groups
}

// FormatShapes renders a node-group list compactly, e.g.
// "32×128c/16g + 96×16c/0g".
func FormatShapes(groups []NodeGroup) string {
	var b strings.Builder
	for i, g := range groups {
		if i > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%d×%dc/%dg", g.Count, g.Spec.Cores, g.Spec.GPUs)
	}
	return b.String()
}

// TotalCores returns the core count across all nodes.
func (p *Platform) TotalCores() int {
	total := 0
	for _, n := range p.nodes {
		total += n.spec.Cores
	}
	return total
}

// TotalGPUs returns the GPU count across all nodes.
func (p *Platform) TotalGPUs() int {
	total := 0
	for _, n := range p.nodes {
		total += n.spec.GPUs
	}
	return total
}

// FreeGPUs returns currently unallocated GPUs across all nodes.
func (p *Platform) FreeGPUs() int {
	total := 0
	for _, n := range p.nodes {
		total += n.FreeGPUs()
	}
	return total
}

// FreeCores returns currently unallocated cores across all nodes.
func (p *Platform) FreeCores() int {
	total := 0
	for _, n := range p.nodes {
		total += n.FreeCores()
	}
	return total
}

// --- address scheme -------------------------------------------------------

// Addr formats a transport address "platform/node/entity". Node may be
// empty for platform-level endpoints (e.g. the client session).
func Addr(platform, node, entity string) string {
	if node == "" {
		return platform + "//" + entity
	}
	return platform + "/" + node + "/" + entity
}

// parseAddr splits an address produced by Addr.
func parseAddr(addr string) (platform, node, entity string, err error) {
	parts := strings.SplitN(addr, "/", 3)
	if len(parts) != 3 {
		return "", "", "", fmt.Errorf("platform: malformed address %q", addr)
	}
	return parts[0], parts[1], parts[2], nil
}

// --- topology resolver -----------------------------------------------------

// Topology resolves the link latency between addressed endpoints across
// a set of platforms.
type Topology struct {
	platforms map[string]*Platform
	// DefaultWAN is used between platforms with no explicit WAN entry.
	DefaultWAN rng.DurationDist
}

// NewTopology indexes the given platforms.
func NewTopology(platforms ...*Platform) *Topology {
	t := &Topology{platforms: make(map[string]*Platform, len(platforms))}
	for _, p := range platforms {
		t.platforms[p.name] = p
	}
	return t
}

// Platform returns the named platform, or nil.
func (t *Topology) Platform(name string) *Platform { return t.platforms[name] }

// Resolver returns a msgq.Resolver implementing the topology: same node →
// intra-node latency; same platform → local latency; different platforms →
// WAN latency (source platform's entry for the target, else DefaultWAN).
// Unaddressed endpoints get the zero distribution: a free link.
func (t *Topology) Resolver() msgq.Resolver {
	return func(from, to string) rng.DurationDist {
		fp, fn, _, errF := parseAddr(from)
		tp, tn, _, errT := parseAddr(to)
		if errF != nil || errT != nil {
			return rng.DurationDist{}
		}
		if fp == tp {
			p := t.platforms[fp]
			if p == nil {
				return rng.DurationDist{}
			}
			if fn == tn && fn != "" {
				return p.IntraNodeLatency
			}
			return p.LocalLatency
		}
		if p := t.platforms[fp]; p != nil {
			if d, ok := p.WANLatency[tp]; ok {
				return d
			}
		}
		if p := t.platforms[tp]; p != nil {
			if d, ok := p.WANLatency[fp]; ok {
				return d
			}
		}
		return t.DefaultWAN
	}
}
