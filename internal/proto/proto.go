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
// Besides the wire form (Body), an in-process envelope retains its payload
// in an unexported field. In-process transports hand the envelope to the
// receiver by value, so Decode can satisfy matching payload types with a
// struct copy instead of a JSON parse — the dominant per-request CPU and
// allocation cost on the REQ/REP hot path. For those fast-path payload
// types Body stays nil until first wire access (WireBody): an envelope that
// never leaves the address space never pays for an encode either. The
// in-process payload is invisible to encoding/json: an envelope that
// crosses a real wire (TCP framing) loses it and Decode reads the JSON
// body: by hand for a request or reply in the writer's shape (codec.go),
// with json.Unmarshal for everything else. A transport's read loop may
// decode such a body into an exchange once (DecodeExchange), which then
// serves Decode as in process.
//
// The payload is one of two things. NewEnvelope keeps a snapshot: a boxed
// copy that never changes, so the envelope may be copied, kept and resent
// at will. NewRequest keeps an exchange instead: one pooled object that
// holds the request and, once Answer has written it, the reply, so that an
// in-process round trip boxes neither. An exchange serves exactly one round
// trip: its request envelope is sent once, answered once, and after
// Release neither it nor its answer may be read, copied or sent again.
type Envelope struct {
	Kind Kind            `json:"kind"`
	ID   uint64          `json:"id"`           // per-sender sequence number
	From string          `json:"from"`         // sender UID
	To   string          `json:"to,omitempty"` // recipient UID (empty: topic/broadcast)
	Sent time.Time       `json:"sent"`         // clock time at send
	Body json.RawMessage `json:"body,omitempty"`

	// typed is the in-process payload: a snapshot or an *exchange; nil
	// after wire transport or for payload types without a fast path.
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
	// holding maps are deliberately excluded — their referents could
	// mutate after send.
	case InferenceRequest, InferenceReply, StateUpdate, Endpoint, ErrorBody:
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
// pooled exchange holding req: the in-process form of NewEnvelope's request,
// with nothing boxed. The envelope serves one round trip (see Envelope);
// its sender releases it once the reply has been read.
func NewRequest(id uint64, from, to string, req InferenceRequest) Envelope {
	x := exchanges.Get().(*exchange)
	x.req = req
	return Envelope{Kind: KindRequest, ID: id, From: from, To: to, Sent: req.SentAt, typed: x}
}

// Answer returns the KindReply envelope that answers request e with
// *reply, from from to e.From, sent at sent. The reply is written into the
// exchange of a request built by NewRequest, which the answer then shares;
// any other request (one decoded from a frame, or a snapshot) is answered
// into an exchange of the answer's own, taken from the same pool.
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
// reading it is a copy and answering it writes into the same exchange. A
// reply lands in the exchange of req, the request it answers (NewRequest),
// whose own request_uid string it reuses when the bytes are equal; a
// request lands in an exchange taken from the pool, with req ignored. The
// client_uid, service_uid and model strings are read through in.
//
// It reports false and changes nothing for any other kind, for a reply
// whose req has no exchange, and for a body not in the hand codec's shape;
// e then decodes as before. e.Body still aliases the frame afterwards:
// whoever keeps e past the frame's buffer drops it. The exchange is
// released once, as NewRequest's is: a reply's by the sender of req, a
// request's by whoever decoded it, after its answer is encoded.
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
// decoded into an exchange (DecodeExchange), or an answer to a request that
// had none, is released by whoever sends the answer on, once it is encoded
// (msgq's TCP server, after the reply frame); one kept in process is left
// to the garbage collector.
func (e Envelope) Release() {
	if x, ok := e.typed.(*exchange); ok {
		*x = exchange{}
		exchanges.Put(x)
	}
}

// WireBody returns the envelope's JSON body, encoding the in-process
// payload on first wire access. Transports call it before charging
// size-dependent link costs; in-process deliveries that decode the typed
// payload never trigger the encode.
func (e *Envelope) WireBody() (json.RawMessage, error) {
	if e.Body == nil && e.typed != nil {
		raw, err := marshalTyped(nil, e)
		if err != nil {
			return nil, fmt.Errorf("proto: marshal %s body: %w", e.Kind, err)
		}
		e.Body = raw
	}
	return e.Body, nil
}

// marshalTyped returns the JSON of e's in-process payload: a request or
// reply hand-encoded onto scratch, any other payload (and a body the hand
// encoder declines) in json.Marshal's own slice. Both encoders write a
// drawn reply's text spelled.
func marshalTyped(scratch []byte, e *Envelope) ([]byte, error) {
	if raw, ok := appendTyped(scratch, e); ok {
		return raw, nil
	}
	v := e.typed
	if x, ok := v.(*exchange); ok {
		v = x.half(e.Kind)
	}
	if r, ok := v.(InferenceReply); ok && r.TextDrawn {
		r.Text, r.TextDrawn = r.Words(), false
		v = r
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
// pointer to the same payload type, the decode is a plain struct copy.
// out escapes into json.Unmarshal; a request or reply decodes without that
// through DecodeRequest or DecodeReply.
func (e Envelope) Decode(want Kind, out any) error {
	if e.Kind != want {
		return kindError(e.Kind, want)
	}
	if e.typed != nil && copyTyped(out, &e) {
		return nil
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

// copyTyped copies e's in-process payload into *out when out points at its
// type: a snapshot's, or the half of an exchange that e.Kind names.
func copyTyped(out any, e *Envelope) bool {
	if x, ok := e.typed.(*exchange); ok {
		switch dst := out.(type) {
		case *InferenceRequest:
			if e.Kind == KindRequest {
				*dst = x.req
				return true
			}
		case *InferenceReply:
			if e.Kind == KindReply {
				*dst = x.rep
				return true
			}
		}
		return false
	}
	v := e.typed
	switch dst := out.(type) {
	case *InferenceRequest:
		return assign(dst, v)
	case *InferenceReply:
		return assign(dst, v)
	case *StateUpdate:
		return assign(dst, v)
	case *Endpoint:
		return assign(dst, v)
	case *ErrorBody:
		return assign(dst, v)
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

// decodeAs returns e's body as a T. The in-process payload is returned as
// a copy and a body in the hand codec's shape is decoded into a T on the
// caller's stack; only a body left to json.Unmarshal allocates its target.
func decodeAs[T any](e Envelope, want Kind) (T, error) {
	var v T
	if e.Kind != want {
		return v, kindError(e.Kind, want)
	}
	if e.typed != nil && copyTyped(&v, &e) {
		return v, nil
	}
	raw, err := e.WireBody()
	if err != nil {
		return v, err
	}
	if decodeBody(raw, &v) {
		return v, nil
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

// lenScratch holds the buffers EncodedBodyLen encodes into to measure.
var lenScratch = sync.Pool{New: func() any { return new([]byte) }}

// EncodedBodyLen returns the length of the envelope's JSON body, encoding
// a lazily-held in-process payload into pooled scratch just to measure it
// (the encode result is not cached — the receiver is a value so hot-path
// callers' envelopes do not escape to the heap). Transports that charge
// for bandwidth use it; latency-only links never need a size.
func (e Envelope) EncodedBodyLen() int {
	if e.Body != nil || e.typed == nil {
		return len(e.Body)
	}
	buf := lenScratch.Get().(*[]byte)
	defer lenScratch.Put(buf)
	raw, err := marshalTyped((*buf)[:0], &e)
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
