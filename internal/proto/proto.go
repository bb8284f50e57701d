// Package proto defines the wire protocol of the runtime: message
// envelopes, typed payloads, and length-prefixed framing for stream
// transports. It is the Go analogue of RADICAL-Pilot's ZeroMQ message
// schema: every client↔agent and task↔service exchange in this repository
// is one of these messages.
package proto

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Kind discriminates envelope payloads.
type Kind string

// Message kinds. The set mirrors the channels in the paper's Fig. 2:
// submission (1), scheduling (2), execution (3), service API calls (4/5),
// and state/information updates (6).
const (
	KindSubmit        Kind = "submit"         // client → manager: new descriptions
	KindSchedule      Kind = "schedule"       // manager → scheduler: placement request
	KindExecute       Kind = "execute"        // scheduler → executor: launch order
	KindRequest       Kind = "request"        // task → service: API call
	KindReply         Kind = "reply"          // service → task: API response
	KindControl       Kind = "control"        // manager → service: control command
	KindStateUpdate   Kind = "state_update"   // any → updater: entity state change
	KindEndpoint      Kind = "endpoint"       // service → registry: endpoint publication
	KindHeartbeat     Kind = "heartbeat"      // service → manager: liveness
	KindLoadReport    Kind = "load_report"    // observer → registry: balancing gauge
	KindRegister      Kind = "register"       // component → session: registration
	KindStageRequest  Kind = "stage_request"  // manager → stager: data movement
	KindStageComplete Kind = "stage_complete" // stager → manager: staging done
	KindError         Kind = "error"          // any → any: failure report
)

// Envelope is the single message type carried by every channel.
//
// Besides the wire form (Body), an envelope built by NewEnvelope retains
// its payload value in an unexported field. In-process transports hand the
// envelope to the receiver by value, so Decode can satisfy matching
// payload types with a struct copy instead of a JSON parse — the dominant
// per-request CPU and allocation cost on the REQ/REP hot path. For those
// fast-path payload types Body stays nil until first wire access
// (WireBody): an envelope that never leaves the address space never pays
// for an encode either. The snapshot field is invisible to encoding/json:
// an envelope that crosses a real wire (TCP framing) loses it and Decode
// reads the JSON body: by hand for a request or reply in the writer's
// shape (codec.go), with json.Unmarshal for everything else.
type Envelope struct {
	Kind Kind            `json:"kind"`
	ID   uint64          `json:"id"`           // per-sender sequence number
	From string          `json:"from"`         // sender UID
	To   string          `json:"to,omitempty"` // recipient UID (empty: topic/broadcast)
	Sent time.Time       `json:"sent"`         // clock time at send
	Body json.RawMessage `json:"body,omitempty"`

	// typed is the in-process payload snapshot; nil after wire transport
	// or for payload types without a fast path.
	typed any
}

// NewEnvelope builds a fresh envelope around body.
//
// Fast-path payload types (the value-typed snapshots Decode understands)
// are kept unencoded: the JSON body materializes lazily on first wire
// access via WireBody, so an envelope that lives and dies inside one
// address space never pays json.Marshal at all. All other payloads are
// encoded eagerly — a pointer or map payload must be snapshotted at send
// time, before its referents can mutate.
func NewEnvelope(kind Kind, id uint64, from, to string, sent time.Time, body any) (Envelope, error) {
	env := Envelope{Kind: kind, ID: id, From: from, To: to, Sent: sent}
	switch body.(type) {
	// Value-typed payloads with no reference fields are true snapshots
	// (boxed copies): safe to keep for the in-process decode fast path
	// and to re-encode later for the wire. Pointer payloads and payloads
	// holding maps (Control.Args) are deliberately excluded — their
	// referents could mutate after send.
	case InferenceRequest, InferenceReply, Heartbeat, LoadReport, StateUpdate, Endpoint, ErrorBody:
		env.typed = body
		return env, nil
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return Envelope{}, fmt.Errorf("proto: marshal %s body: %w", kind, err)
	}
	env.Body = raw
	return env, nil
}

// WireBody returns the envelope's JSON body, encoding the in-process
// payload snapshot on first wire access. Transports call it before
// charging size-dependent link costs; in-process deliveries that decode
// via the typed snapshot never trigger the encode.
func (e *Envelope) WireBody() (json.RawMessage, error) {
	if e.Body == nil && e.typed != nil {
		raw, err := marshalTyped(nil, e.typed)
		if err != nil {
			return nil, fmt.Errorf("proto: marshal %s body: %w", e.Kind, err)
		}
		e.Body = raw
	}
	return e.Body, nil
}

// marshalTyped returns the JSON of payload snapshot v: a request or reply
// body hand-encoded onto scratch, any other payload (and a body the hand
// encoder declines) in json.Marshal's own slice.
func marshalTyped(scratch []byte, v any) ([]byte, error) {
	if raw, ok := appendBody(scratch, v); ok {
		return raw, nil
	}
	return json.Marshal(v)
}

// Decode unmarshals the envelope body into out, validating the kind first.
// When the envelope still carries its in-process payload snapshot and out
// is a pointer to the same payload type, the decode is a plain struct copy.
func (e Envelope) Decode(want Kind, out any) error {
	if e.Kind != want {
		return fmt.Errorf("proto: decode kind %q as %q", e.Kind, want)
	}
	if e.typed != nil {
		switch dst := out.(type) {
		case *InferenceRequest:
			if v, ok := e.typed.(InferenceRequest); ok {
				*dst = v
				return nil
			}
		case *InferenceReply:
			if v, ok := e.typed.(InferenceReply); ok {
				*dst = v
				return nil
			}
		case *Heartbeat:
			if v, ok := e.typed.(Heartbeat); ok {
				*dst = v
				return nil
			}
		case *LoadReport:
			if v, ok := e.typed.(LoadReport); ok {
				*dst = v
				return nil
			}
		case *StateUpdate:
			if v, ok := e.typed.(StateUpdate); ok {
				*dst = v
				return nil
			}
		case *Endpoint:
			if v, ok := e.typed.(Endpoint); ok {
				*dst = v
				return nil
			}
		case *ErrorBody:
			if v, ok := e.typed.(ErrorBody); ok {
				*dst = v
				return nil
			}
		}
	}
	raw, err := (&e).WireBody() // lazy body: materialize for the JSON path
	if err != nil {
		return err
	}
	if decodeBody(raw, out) {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("proto: decode %s body: %w", e.Kind, err)
	}
	return nil
}

// lenScratch holds the buffers EncodedBodyLen encodes into to measure.
var lenScratch = sync.Pool{New: func() any { return new([]byte) }}

// EncodedBodyLen returns the length of the envelope's JSON body, encoding
// a lazily-held payload snapshot into pooled scratch just to measure it
// (the encode result is not cached — the receiver is a value so hot-path
// callers' envelopes do not escape to the heap). Transports that charge
// for bandwidth use it; latency-only links never need a size.
func (e Envelope) EncodedBodyLen() int {
	if e.Body != nil || e.typed == nil {
		return len(e.Body)
	}
	buf := lenScratch.Get().(*[]byte)
	defer lenScratch.Put(buf)
	raw, err := marshalTyped((*buf)[:0], e.typed)
	if err != nil {
		return 0
	}
	*buf = raw // the scratch grown, or json.Marshal's slice: either is ours to keep
	return len(raw)
}

// InferenceRequest is the payload of a KindRequest message: one API call
// from a client task to a model service (paper §IV: a prompt sent via the
// service interface).
type InferenceRequest struct {
	RequestUID string `json:"request_uid"`
	ClientUID  string `json:"client_uid"`
	Model      string `json:"model"` // model name, e.g. "llama-8b" or "noop"
	Prompt     string `json:"prompt"`
	MaxTokens  int    `json:"max_tokens,omitempty"`
	// NoBatch excludes the request from batched inference: a server with
	// continuous batching enabled serves it alone rather than coalescing
	// it with compatible queued requests.
	NoBatch bool `json:"no_batch,omitempty"`
	// SentAt is the client clock time immediately before the request
	// entered the transport; used for RT decomposition.
	SentAt time.Time `json:"sent_at"`
}

// Timing carries the service-side timestamps used to decompose response
// time into the paper's communication / service / inference components.
type Timing struct {
	ReceivedAt   time.Time `json:"received_at"` // request hit the service socket
	DequeuedAt   time.Time `json:"dequeued_at"` // request left the service queue
	InferStartAt time.Time `json:"infer_start_at"`
	InferEndAt   time.Time `json:"infer_end_at"`
	RepliedAt    time.Time `json:"replied_at"` // reply entered the transport
}

// QueueTime returns how long the request waited in the service queue.
func (t Timing) QueueTime() time.Duration { return t.DequeuedAt.Sub(t.ReceivedAt) }

// ServiceTime returns the service-side handling time excluding inference:
// parse/queue/deserialize plus reply formation (paper Exp 2 "service").
func (t Timing) ServiceTime() time.Duration {
	return t.RepliedAt.Sub(t.ReceivedAt) - t.InferTime()
}

// InferTime returns the pure model inference duration (paper "inference").
func (t Timing) InferTime() time.Duration { return t.InferEndAt.Sub(t.InferStartAt) }

// InferenceReply is the payload of a KindReply message.
type InferenceReply struct {
	RequestUID   string `json:"request_uid"`
	ServiceUID   string `json:"service_uid"`
	Model        string `json:"model"`
	Text         string `json:"text"`
	PromptTokens int    `json:"prompt_tokens"`
	OutputTokens int    `json:"output_tokens"`
	Timing       Timing `json:"timing"`
	Err          string `json:"err,omitempty"`
}

// ControlCommand names a service control operation.
type ControlCommand string

// Control commands supported by the service control channel.
const (
	CtlPrepare   ControlCommand = "prepare"   // pre-load / warm the capability
	CtlDrain     ControlCommand = "drain"     // stop accepting, finish queue
	CtlTerminate ControlCommand = "terminate" // stop now
	CtlPing      ControlCommand = "ping"      // liveness probe
)

// Control is the payload of a KindControl message.
type Control struct {
	Command ControlCommand    `json:"command"`
	Target  string            `json:"target"` // service UID
	Args    map[string]string `json:"args,omitempty"`
}

// Endpoint is the payload of a KindEndpoint message: a service publishing
// where it can be reached (paper Exp 1 "publish" component).
type Endpoint struct {
	ServiceUID  string    `json:"service_uid"`
	Model       string    `json:"model"`
	Address     string    `json:"address"`  // transport address (msgq or URL)
	Protocol    string    `json:"protocol"` // "msgq" | "rest"
	Node        string    `json:"node,omitempty"`
	PublishedAt time.Time `json:"published_at"`
	// Generation counts publications of this service UID: every re-publish
	// (e.g. after a failover re-placement) increments it. Clients that
	// cache an endpoint compare generations against the session endpoint
	// registry to detect that their copy went stale and re-resolve.
	Generation uint64 `json:"generation,omitempty"`
	// Incarnation is the session incarnation that published the endpoint
	// (minted per crash recovery). The session EndpointRegistry fences on
	// it: a publication stamped with an incarnation below the fence is a
	// zombie from before a recovery and is rejected, so it can never
	// clobber its re-placed successor. Zero for journal-less sessions.
	Incarnation uint64 `json:"incarnation,omitempty"`
}

// StateUpdate is the payload of a KindStateUpdate message.
type StateUpdate struct {
	EntityUID string    `json:"entity_uid"`
	Entity    string    `json:"entity"` // "pilot" | "task" | "service"
	State     string    `json:"state"`
	At        time.Time `json:"at"`
	Detail    string    `json:"detail,omitempty"`
}

// Heartbeat is the payload of a KindHeartbeat message. QueueDepth is the
// compatibility sum of the two honest gauges: Queued (admitted, waiting
// for a worker) and InFlight (currently executing). Busy means the
// service is executing at least one request — a deep queue alone does
// not set it.
type Heartbeat struct {
	ServiceUID string    `json:"service_uid"`
	At         time.Time `json:"at"`
	QueueDepth int       `json:"queue_depth"`
	Queued     int       `json:"queued"`
	InFlight   int       `json:"in_flight"`
	Busy       bool      `json:"busy"`
}

// LoadReport is the payload of a KindLoadReport message: one endpoint's
// balancing gauges, pushed by whoever observes the instance (the session
// autoscaler's control loop, a campaign's reporter) into the session
// EndpointRegistry. Unlike Heartbeat — a liveness signal consumed by the
// ServiceManager — a LoadReport exists only to steer balancing clients,
// and At is load-bearing: balancers treat a report older than their
// staleness horizon as no information at all and fall back to blind
// rotation rather than chase a gauge the world has moved past.
type LoadReport struct {
	ServiceUID string    `json:"service_uid"`
	Queued     int       `json:"queued"`
	InFlight   int       `json:"in_flight"`
	At         time.Time `json:"at"`
}

// StageRequest is the payload of a KindStageRequest message.
type StageRequest struct {
	TaskUID   string `json:"task_uid"`
	Source    string `json:"source"`
	Target    string `json:"target"`
	Bytes     int64  `json:"bytes"`
	Direction string `json:"direction"` // "in" | "out"
	Mode      string `json:"mode"`      // "copy" | "link" | "transfer"
}

// ErrorBody is the payload of a KindError message.
type ErrorBody struct {
	Origin string `json:"origin"`
	Msg    string `json:"msg"`
}

// --- framing -------------------------------------------------------------

// MaxFrameSize bounds a single framed message (16 MiB). Larger frames are
// rejected to protect against corrupt length prefixes.
const MaxFrameSize = 16 << 20

// ErrFrameTooLarge is returned when a frame exceeds MaxFrameSize.
var ErrFrameTooLarge = errors.New("proto: frame exceeds maximum size")
