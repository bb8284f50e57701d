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
	"strconv"
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

// TaskUID returns fmt.Sprintf("%s.task.%06d", owner, seq) for seq >= 0: the
// UID a manager or a pilot mints for its seq-th task, built without fmt on a
// buffer that leaves the stack only as the string.
func TaskUID(owner string, seq int) string {
	var buf [64]byte
	b := append(append(buf[:0], owner...), ".task."...)
	for pad := 100000; pad > seq && pad > 1; pad /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(seq), 10))
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
	// MinReplicas and MaxReplicas bound the session autoscaler. A
	// MaxReplicas above 1 enables demand-driven scaling: the session
	// watches the service's queue depth over the session clock and
	// spawns/retires replica instances under this logical service UID.
	// MinReplicas defaults to 1; zero values leave the service unscaled.
	MinReplicas int
	MaxReplicas int
	// ScaleInterval is the autoscaler evaluation period on the session
	// clock (default 2s).
	ScaleInterval time.Duration
	// ScaleUpQueue is the mean queued-requests-per-replica threshold at
	// or above which the autoscaler adds a replica (default 4).
	ScaleUpQueue float64
	// ScaleDownQueue is the mean queued-requests-per-replica threshold at
	// or below which an evaluation counts toward retiring a replica
	// (default 1).
	ScaleDownQueue float64
	// ScaleStabilize is the number of consecutive at-or-below-
	// ScaleDownQueue evaluations required before a replica is retired —
	// the scale-down hysteresis that keeps a bursty trough from thrashing
	// replicas (default 3).
	ScaleStabilize int
	// WarmStandbys pre-bootstraps this many standby instances on pilots
	// distinct from the base host, held suspended (published but not
	// resolvable) in the session endpoint registry. When the hosting pilot
	// dies, the failure watcher promotes a standby with a single
	// generation-bump publish instead of a full re-bootstrap, and the
	// standby pool is re-filled in the background. Zero disables.
	WarmStandbys int
	// ProbeInterval is the liveness-probe period of the ServiceManager
	// (default 5s).
	ProbeInterval time.Duration
	// StartTimeout bounds launch+init+publish before the manager declares
	// the service failed (default 10m).
	StartTimeout time.Duration
	// Persistent services survive workload completion and must be
	// terminated explicitly (remote/R3-style deployments).
	Persistent bool
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
	if d.MinReplicas < 0 || d.MaxReplicas < 0 {
		return fmt.Errorf("spec: service %q: negative replica bound", d.Name)
	}
	if d.MaxReplicas > 0 && d.MinReplicas > d.MaxReplicas {
		return fmt.Errorf("spec: service %q: min replicas %d above max %d",
			d.Name, d.MinReplicas, d.MaxReplicas)
	}
	if d.ScaleUpQueue < 0 || d.ScaleDownQueue < 0 || d.ScaleStabilize < 0 {
		return fmt.Errorf("spec: service %q: negative autoscaler threshold", d.Name)
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
	// Runtime bounds the pilot's lifetime (0 = unbounded).
	Runtime time.Duration
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
