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

// Message kinds: the ones sent over msgq. Of the channels in the paper's
// Fig. 2, service API calls (4/5) and state updates (6) are messages;
// submission, scheduling and execution (1-3) are in-process calls.
const (
	KindRequest     Kind = "request"      // task → service: API call
	KindReply       Kind = "reply"        // service → task: API response
	KindStateUpdate Kind = "state_update" // any → updater: entity state change
	KindError       Kind = "error"        // any → any: failure report
)

// Envelope is the single message type carried by every channel.
//
// Besides the wire form (Body), an in-process envelope may retain its
// payload in an unexported field, one form per kind. In-process transports
// hand the envelope to the receiver by value, so Decode satisfies a
// matching payload type with a struct copy instead of a JSON parse: the
// dominant per-request CPU and allocation cost on the REQ/REP hot path.
// Such an envelope's Body stays nil until a wire needs it: a transport
// encodes the payload into its frame (AppendFrame), so an envelope that
// never leaves the address space never pays for an encode. The in-process
// payload is invisible to encoding/json: an envelope that crosses a real
// wire (TCP framing) loses it, and its read loop decodes a request or
// reply body in the writer's shape (codec.go) into an exchange once
// (DecodeExchange), which then serves Decode as in process. Every other
// body is read by json.Unmarshal.
//
// A request is an exchange (NewRequest), and so is a reply (Answer): one
// pooled object that holds the request and, once Answer has written it,
// the reply, so that an in-process round trip boxes neither. An exchange
// serves exactly one round trip: its request envelope is sent once,
// answered once, and after Release neither it nor its answer may be read,
// copied or sent again. A state update or an error is an immutable boxed
// snapshot (NewEnvelope), and NewEnvelope encodes any other payload into
// Body at once: either envelope may be copied, kept and resent at will.
type Envelope struct {
	Kind Kind            `json:"kind"`
	ID   uint64          `json:"id"`           // per-sender sequence number
	From string          `json:"from"`         // sender UID
	To   string          `json:"to,omitempty"` // recipient UID (empty: topic/broadcast)
	Sent time.Time       `json:"sent"`         // clock time at send
	Body json.RawMessage `json:"body,omitempty"`

	// typed is the in-process payload: an *exchange, a StateUpdate or an
	// ErrorBody; nil after wire transport and for a Body NewEnvelope
	// encoded.
	typed any
}

// NewEnvelope builds a fresh envelope around body.
//
// A StateUpdate or an ErrorBody, value-typed with no reference fields, is
// kept as a boxed snapshot: its JSON is written only when a wire needs it.
// Every other payload is encoded at once into Body, so that a pointer or
// map payload is captured at send time, before its referents can mutate.
// An InferenceRequest or InferenceReply is encoded by the hand codec, a
// drawn reply's text spelled; one that should take part in a round trip
// without an encode is built with NewRequest and Answer instead.
func NewEnvelope(kind Kind, id uint64, from, to string, sent time.Time, body any) (Envelope, error) {
	env := Envelope{Kind: kind, ID: id, From: from, To: to, Sent: sent}
	switch body.(type) {
	case StateUpdate, ErrorBody:
		env.typed = body
		return env, nil
	}
	if raw, ok := appendBody(nil, body); ok {
		env.Body = raw
		return env, nil
	}
	raw, err := json.Marshal(body) // a request or reply appendBody declined fails here alike
	if err != nil {
		return Envelope{}, fmt.Errorf("proto: marshal %s body: %w", kind, err)
	}
	env.Body = raw
	return env, nil
}

// exchange is one REQ/REP round trip: the request a client sent and, once
// the server has answered, its reply. In process the server answers into
// the client's exchange; over TCP each side decodes the body it receives
// into an exchange on its own side (DecodeExchange). The request envelope
// and the reply envelope both point at it, each reading the half its Kind
// names.
type exchange struct {
	req InferenceRequest
	rep InferenceReply
}

// exchanges recycles exchanges across round trips (Release).
var exchanges = sync.Pool{New: func() any { return new(exchange) }}

// NewRequest builds a KindRequest envelope sent at req.SentAt around a
// pooled exchange holding req: the one in-process form of a request, with
// nothing boxed and nothing encoded. The envelope serves one round trip
// (see Envelope); its sender releases it once the reply has been read.
func NewRequest(id uint64, from, to string, req InferenceRequest) Envelope {
	x := exchanges.Get().(*exchange)
	x.req = req
	return Envelope{Kind: KindRequest, ID: id, From: from, To: to, Sent: req.SentAt, typed: x}
}

// Answer returns the KindReply envelope that answers request e with
// *reply, from from to e.From, sent at sent: the one in-process form of a
// reply. The reply is written into the exchange e carries, built by
// NewRequest or decoded from a frame (DecodeExchange), which the answer
// then shares. A request with no exchange, a foreign writer's body the
// hand codec declined or an envelope NewEnvelope encoded, is answered
// into an exchange of the answer's own, taken from the same pool and left
// to the garbage collector.
func (e Envelope) Answer(from string, sent time.Time, reply *InferenceReply) Envelope {
	x, ok := e.typed.(*exchange)
	if !ok || e.Kind != KindRequest {
		x = exchanges.Get().(*exchange)
	}
	x.rep = *reply
	return Envelope{Kind: KindReply, ID: e.ID, From: from, To: e.From, Sent: sent, typed: x}
}

// DecodeExchange decodes the body of e, a request or a reply as
// DecodeFrame returns it, into an exchange that e then carries, so that
// reading it is a copy and answering it writes into the same exchange. It
// is the one door through which a wire body is hand-decoded; a body it
// declines is read by json.Unmarshal. A reply lands in the exchange of req,
// the request it answers (NewRequest), whose own request_uid string it
// reuses when the bytes are equal; a request lands in an exchange taken
// from the pool, with req ignored. The client_uid, service_uid and model
// strings are read through in (a nil in allocates them).
//
// It reports false and changes nothing for any other kind, for a reply
// whose req has no exchange, and for a body not in the hand codec's shape.
// e.Body still aliases the frame afterwards: whoever keeps e past the
// frame's buffer drops it. The exchange is released once, as NewRequest's
// is: a reply's by the sender of req, a request's by whoever decoded it,
// after its answer is encoded.
func (e *Envelope) DecodeExchange(req Envelope, in *Interner) bool {
	if e.typed != nil || e.Body == nil {
		return false
	}
	switch e.Kind {
	case KindRequest:
		x := exchanges.Get().(*exchange)
		if !decodeRequest(e.Body, &x.req, in) {
			exchanges.Put(x)
			return false
		}
		e.typed = x
		return true
	case KindReply:
		x, ok := req.typed.(*exchange)
		if !ok || req.Kind != KindRequest || !decodeReply(e.Body, &x.rep, in, x.req.RequestUID) {
			return false
		}
		e.typed = x
		return true
	}
	return false
}

// Release returns the exchange of an envelope to the pool; it does nothing
// for an envelope that has none. A round trip built by NewRequest is
// released by its sender, once, through the request or its answer, after
// the reply has been read: a request abandoned on ctx expiry may still be
// answered, so its exchange is left to the garbage collector. A request
// decoded into an exchange (DecodeExchange) is released by whoever sends
// its answer on, once that is encoded (msgq's TCP server, after the reply
// frame).
func (e Envelope) Release() {
	if x, ok := e.typed.(*exchange); ok {
		*x = exchange{}
		exchanges.Put(x)
	}
}

// wireBody returns the envelope's JSON body, encoding the in-process
// payload on first wire access and keeping it in Body.
func (e *Envelope) wireBody() (json.RawMessage, error) {
	if e.Body == nil && e.typed != nil {
		raw, err := marshalTyped(e)
		if err != nil {
			return nil, fmt.Errorf("proto: marshal %s body: %w", e.Kind, err)
		}
		e.Body = raw
	}
	return e.Body, nil
}

// marshalTyped returns the JSON of e's in-process payload: an exchange's
// half hand-encoded, a snapshot (and a half the hand encoder declines,
// whose timestamp json.Marshal refuses alike) by json.Marshal.
func marshalTyped(e *Envelope) ([]byte, error) {
	if raw, ok := appendTyped(nil, e); ok {
		return raw, nil
	}
	v := e.typed
	if x, ok := v.(*exchange); ok {
		v = x.half(e.Kind)
	}
	return json.Marshal(v)
}

// half returns the payload of an exchange envelope of kind: the request,
// the reply, or nil for any other kind.
func (x *exchange) half(kind Kind) any {
	switch kind {
	case KindRequest:
		return x.req
	case KindReply:
		return x.rep
	}
	return nil
}

// Decode unmarshals the envelope body into out, validating the kind first.
// When the envelope still carries its in-process payload and out is a
// pointer to the same payload type, the decode is a plain struct copy;
// any other body goes to json.Unmarshal, into which out escapes. A request
// or reply decodes without that through DecodeRequest or DecodeReply.
func (e Envelope) Decode(want Kind, out any) error {
	if e.Kind != want {
		return kindError(e.Kind, want)
	}
	if e.typed != nil && copyTyped(out, &e) {
		return nil
	}
	raw, err := (&e).wireBody() // lazy body: materialize for the JSON path
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("proto: decode %s body: %w", e.Kind, err)
	}
	return nil
}

// copyTyped copies e's in-process payload into *out when out points at its
// type: the half of an exchange that e.Kind names, or a snapshot's.
func copyTyped(out any, e *Envelope) bool {
	x, isX := e.typed.(*exchange)
	switch dst := out.(type) {
	case *InferenceRequest:
		if isX && e.Kind == KindRequest {
			*dst = x.req
			return true
		}
	case *InferenceReply:
		if isX && e.Kind == KindReply {
			*dst = x.rep
			return true
		}
	case *StateUpdate:
		return assign(dst, e.typed)
	case *ErrorBody:
		return assign(dst, e.typed)
	}
	return false
}

func assign[T any](dst *T, v any) bool {
	t, ok := v.(T)
	if ok {
		*dst = t
	}
	return ok
}

// DecodeRequest returns the body of a KindRequest envelope.
func (e Envelope) DecodeRequest() (InferenceRequest, error) {
	return decodeAs[InferenceRequest](e, KindRequest)
}

// DecodeReply returns the body of a KindReply envelope.
func (e Envelope) DecodeReply() (InferenceReply, error) {
	return decodeAs[InferenceReply](e, KindReply)
}

// decodeAs returns e's body as a T. The half of an exchange is returned as
// a copy; only a body left to json.Unmarshal allocates its target.
func decodeAs[T any](e Envelope, want Kind) (T, error) {
	var v T
	if e.Kind != want {
		return v, kindError(e.Kind, want)
	}
	if e.typed != nil && copyTyped(&v, &e) {
		return v, nil
	}
	raw, err := e.wireBody()
	if err != nil {
		return v, err
	}
	return unmarshalAs[T](e.Kind, raw)
}

// unmarshalAs decodes raw into a fresh T with encoding/json. It is a
// function of its own so that the one target json.Unmarshal holds on to is
// allocated on this path alone.
func unmarshalAs[T any](kind Kind, raw []byte) (T, error) {
	v := new(T)
	if err := json.Unmarshal(raw, v); err != nil {
		return *v, fmt.Errorf("proto: decode %s body: %w", kind, err)
	}
	return *v, nil
}

func kindError(got, want Kind) error {
	return fmt.Errorf("proto: decode kind %q as %q", got, want)
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
	// TextFrom, when TextDrawn is set, is the model stream's state at the
	// reply's first word draw: the text is drawn but not spelled, and Text
	// is empty. Words spells it for an in-process reader, and every encoder
	// spells it into "text"; the draw itself never crosses a wire.
	TextFrom  uint64 `json:"-"`
	TextDrawn bool   `json:"-"`
}

// Endpoint is where a service can be reached, as it publishes it to the
// session's endpoint registry (paper Exp 1 "publish" component).
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
}

// ErrorBody is the payload of a KindError message.
type ErrorBody struct {
	Origin string `json:"origin"`
	Msg    string `json:"msg"`
}

// --- framing -------------------------------------------------------------

// maxFrameSize bounds a single framed message (16 MiB). Larger frames are
// rejected to protect against corrupt length prefixes.
const maxFrameSize = 16 << 20

// ErrFrameTooLarge is returned when a frame exceeds maxFrameSize.
var ErrFrameTooLarge = errors.New("proto: frame exceeds maximum size")
