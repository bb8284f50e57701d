// Package spec defines the description records users submit to the
// runtime: PilotDescription, TaskDescription and ServiceDescription. They
// mirror RADICAL-Pilot's description API, with ServiceDescription extending
// the Task abstraction exactly as the paper does: "Implementation of the
// service infrastructure includes extending RADICAL-Pilot's Task
// abstraction into Service Task with corresponding service management and
// interface capabilities."
package spec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/rng"
)

// StageMode selects how a staging directive moves data.
type StageMode string

// Staging modes.
const (
	StageCopy     StageMode = "copy"     // intra-platform filesystem copy
	StageLink     StageMode = "link"     // constant-time symlink
	StageTransfer StageMode = "transfer" // wide-area (Globus-like) transfer
)

// StagingDirective describes one data movement for a task or service.
type StagingDirective struct {
	// Source and Target are storage URIs "platform:/path".
	Source string
	Target string
	// Bytes is the payload size.
	Bytes int64
	// Mode selects the movement mechanism.
	Mode StageMode
}

// TaskFunc is a function payload: tasks can carry executable logic (the
// client tasks of the paper's experiments send inference requests from
// inside such payloads). ctx is cancelled when the task is cancelled.
type TaskFunc func(ctx context.Context) error

// TaskDescription describes one unit of work.
type TaskDescription struct {
	// UID is assigned by the manager when empty.
	UID string
	// Name is a human-readable label.
	Name string
	// Cores, GPUs and MemGB are per-task resource requirements on a
	// single node.
	Cores int
	GPUs  int
	MemGB float64
	// Duration is the simulated compute payload; ignored when Func is
	// set.
	Duration rng.DurationDist
	// Func is an optional executable payload run in-process.
	Func TaskFunc `json:"-"`
	// Priority orders scheduling: higher first. The ServiceManager raises
	// service priority so services start before compute tasks, as §III
	// requires.
	Priority int
	// Pilot optionally pins the task to the named pilot, bypassing the
	// session's task router. Pinned tasks are never re-routed: if the
	// pilot shuts down first, the task fails. workflow.Stage.Pilot sets
	// this for a whole stage.
	Pilot string
	// InputStaging and OutputStaging run before/after execution.
	InputStaging  []StagingDirective
	OutputStaging []StagingDirective
	// Metadata carries free-form key/values.
	Metadata map[string]string
}

// Validate checks the description for structural errors.
func (d TaskDescription) Validate() error {
	if d.Cores < 0 || d.GPUs < 0 || d.MemGB < 0 {
		return fmt.Errorf("spec: task %q: negative resource request", d.Name)
	}
	if d.Cores == 0 && d.GPUs == 0 && d.Func == nil && d.Duration.IsZero() {
		return fmt.Errorf("spec: task %q: empty task (no resources, no payload)", d.Name)
	}
	for _, sd := range append(append([]StagingDirective{}, d.InputStaging...), d.OutputStaging...) {
		if err := sd.Validate(); err != nil {
			return fmt.Errorf("spec: task %q: %w", d.Name, err)
		}
	}
	return nil
}

// uidBlockLen is how many consecutive UIDs a UIDBlock spells at a time.
const uidBlockLen = 100

// UIDBlock is the UIDs of one prefix and the sequence numbers first …
// first+n-1 (first a multiple of uidBlockLen), spelled back to back in one
// string: a UID is a substring of it and costs no allocation of its own. An
// aligned block never crosses a power of ten, so its UIDs share one width.
// The zero value holds no UID. A manager or a pilot mints its tasks' UIDs from
// one under its lock, a service client its request UIDs from blocks it shares
// once spelled: UID only reads a block that holds seq.
type UIDBlock struct {
	first, n uint64
	width    int
	s        string
}

// UID returns prefix followed by seq, zero-padded to six digits:
// fmt.Sprintf("%s%06d", prefix, seq), as "<owner>.task." or "<client>.req."
// spell a task's or a request's UID. When the block does not hold seq it is
// first respelled, in place, as the block of prefix that does: the block at
// math.MaxUint64 is shorter. A block serves one prefix.
func (b *UIDBlock) UID(prefix string, seq uint64) string {
	if seq-b.first >= b.n { // seq < first wraps round
		first := seq - seq%uidBlockLen
		var buf [20]byte // first's digits, right-aligned and zero-padded to six
		at := len(buf)
		for v := first; v > 0 || at > len(buf)-6; v /= 10 {
			at--
			buf[at] = byte('0' + v%10)
		}
		field := buf[at:]
		stem := field[:len(field)-2] // first's last two digits are 00: the UIDs differ in the last two
		b.first, b.n, b.width = first, min(uidBlockLen-1, math.MaxUint64-first)+1, len(prefix)+len(field)
		var sb strings.Builder
		sb.Grow(int(b.n) * b.width)
		for i := uint64(0); i < b.n; i++ {
			sb.WriteString(prefix)
			sb.Write(stem)
			sb.WriteByte(byte('0' + i/10))
			sb.WriteByte(byte('0' + i%10))
		}
		b.s = sb.String()
	}
	off := int(seq-b.first) * b.width
	return b.s[off : off+b.width]
}

// Validate checks a staging directive.
func (sd StagingDirective) Validate() error {
	if sd.Source == "" || sd.Target == "" {
		return errors.New("staging directive with empty endpoint")
	}
	if sd.Bytes < 0 {
		return errors.New("staging directive with negative size")
	}
	switch sd.Mode {
	case StageCopy, StageLink, StageTransfer:
		return nil
	default:
		return fmt.Errorf("staging directive with unknown mode %q", sd.Mode)
	}
}

// ServicePriority is the default priority boost services receive over
// plain tasks.
const ServicePriority = 100

// ServiceDescription extends TaskDescription into a Service Task.
type ServiceDescription struct {
	TaskDescription

	// Model names the capability the service exposes (catalog name, e.g.
	// "llama-8b" or "noop").
	Model string
	// Concurrency is the number of requests the service handles at once.
	// The paper's prototype is single-threaded: default 1.
	Concurrency int
	// QueueCap bounds the service request queue (default 4096).
	QueueCap int
	// MaxBatch bounds how many compatible queued requests one serving
	// worker coalesces into a single batched inference (continuous
	// batching). 0 or 1 disables batching.
	MaxBatch int
	// MaxReplicas bounds the session autoscaler. Above 1 it enables
	// demand-driven scaling: the session watches the service's queue depth
	// over the session clock and spawns/retires replica instances under
	// this logical service UID, never below the base instance. Zero leaves
	// the service unscaled.
	MaxReplicas int
	// WarmStandbys pre-bootstraps this many standby instances on pilots
	// distinct from the base host, held suspended (published but not
	// resolvable) in the session endpoint registry. When the hosting pilot
	// dies, the failure watcher promotes a standby with a single
	// generation-bump publish instead of a full re-bootstrap, and the
	// standby pool is re-filled in the background. Zero disables.
	WarmStandbys int
	// ProbeInterval is the liveness-probe period of the ServiceManager
	// (default 5s): a killed service is marked FAILED two periods after
	// the kill.
	ProbeInterval time.Duration
	// StartTimeout bounds a service's start, from submission to ACTIVE: its
	// input staging, its wait for cores on the session clock, and its
	// modelled launch, init and publish. The manager checks it at the grant
	// and after each phase, and fails a service that has overrun it
	// (default 10m).
	StartTimeout time.Duration
}

// Validate checks the service description.
func (d ServiceDescription) Validate() error {
	if d.Model == "" {
		return fmt.Errorf("spec: service %q: no model", d.Name)
	}
	if d.Concurrency < 0 || d.QueueCap < 0 {
		return fmt.Errorf("spec: service %q: negative concurrency/queue", d.Name)
	}
	if d.MaxBatch < 0 {
		return fmt.Errorf("spec: service %q: negative max batch", d.Name)
	}
	if d.MaxReplicas < 0 {
		return fmt.Errorf("spec: service %q: negative replica bound", d.Name)
	}
	if d.WarmStandbys < 0 {
		return fmt.Errorf("spec: service %q: negative warm-standby count", d.Name)
	}
	// service tasks hold resources for the serving process itself; a
	// zero-resource service is legal (noop service on a shared core).
	if d.Cores < 0 || d.GPUs < 0 || d.MemGB < 0 {
		return fmt.Errorf("spec: service %q: negative resource request", d.Name)
	}
	return nil
}

// PilotDescription requests a resource allocation on one platform.
type PilotDescription struct {
	UID string
	// Platform names the target machine ("frontier", "delta", "r3").
	Platform string
	// Nodes requests whole nodes. When zero, Cores/GPUs select the node
	// count (ceil over node size).
	Nodes int
	Cores int
	GPUs  int
}

// Validate checks the pilot description.
func (d PilotDescription) Validate() error {
	if d.Platform == "" {
		return errors.New("spec: pilot without platform")
	}
	if d.Nodes < 0 || d.Cores < 0 || d.GPUs < 0 {
		return errors.New("spec: pilot with negative resource request")
	}
	if d.Nodes == 0 && d.Cores == 0 && d.GPUs == 0 {
		return errors.New("spec: pilot with empty resource request")
	}
	return nil
}
