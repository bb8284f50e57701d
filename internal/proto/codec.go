package proto

// Hand-written JSON codec for the two bodies that cross the wire once per
// request: InferenceRequest and InferenceReply. The bytes are
// encoding/json's, so agents with and without it interoperate. The encoder
// emits exactly what json.Marshal emits; the decoder, reached through
// Envelope.DecodeExchange alone, reads exactly that shape and declines on
// any deviation (unknown or reordered key, whitespace, non-canonical
// number, a timestamp Time.UnmarshalJSON refuses), leaving the body to
// json.Unmarshal. Every other payload is encoding/json's throughout.

import (
	"encoding/json"
	"math"
	"strconv"
	"time"

	"repro/internal/jsonshape"
)

// timingKeys precede the five timestamps of a reply, in Timing's order.
var timingKeys = [5]string{
	`,"timing":{"received_at":`, `,"dequeued_at":`, `,"infer_start_at":`, `,"infer_end_at":`, `,"replied_at":`,
}

// appendBody appends the encoding/json bytes of a request or reply body, a
// drawn reply's text spelled (InferenceReply.Words). ok
// is false, with b left in an unspecified state, for every other payload and
// for a timestamp Time.MarshalJSON refuses: json.Marshal then encodes the
// one or reports the other.
func appendBody(b []byte, body any) (_ []byte, ok bool) {
	switch v := body.(type) {
	case InferenceRequest:
		return appendRequest(b, &v)
	case InferenceReply:
		return appendReply(b, &v)
	}
	return b, false
}

// appendExchange is appendBody of the half of an exchange that e.Kind
// names, read in place; it declines every other envelope.
func appendExchange(b []byte, e *Envelope) (_ []byte, ok bool) {
	if e.x != nil {
		switch e.Kind {
		case KindRequest:
			return appendRequest(b, &e.x.req)
		case KindReply:
			return appendReply(b, &e.x.rep)
		}
	}
	return b, false
}

// appendRequest is appendBody of a request.
func appendRequest(b []byte, v *InferenceRequest) (_ []byte, ok bool) {
	b = jsonshape.AppendString(append(b, `{"request_uid":`...), v.RequestUID)
	b = jsonshape.AppendString(append(b, `,"client_uid":`...), v.ClientUID)
	b = jsonshape.AppendString(append(b, `,"model":`...), v.Model)
	b = jsonshape.AppendString(append(b, `,"prompt":`...), v.Prompt)
	if v.MaxTokens != 0 {
		b = strconv.AppendInt(append(b, `,"max_tokens":`...), int64(v.MaxTokens), 10)
	}
	b, ok = jsonshape.AppendTime(append(b, `,"sent_at":`...), v.SentAt)
	return append(b, '}'), ok
}

// appendReply is appendBody of a reply.
func appendReply(b []byte, v *InferenceReply) (_ []byte, ok bool) {
	b = jsonshape.AppendString(append(b, `{"request_uid":`...), v.RequestUID)
	b = jsonshape.AppendString(append(b, `,"service_uid":`...), v.ServiceUID)
	b = jsonshape.AppendString(append(b, `,"model":`...), v.Model)
	b = jsonshape.AppendString(append(b, `,"text":`...), v.Words())
	b = strconv.AppendInt(append(b, `,"prompt_tokens":`...), int64(v.PromptTokens), 10)
	b = strconv.AppendInt(append(b, `,"output_tokens":`...), int64(v.OutputTokens), 10)
	t := &v.Timing
	for i, at := range [5]time.Time{t.ReceivedAt, t.DequeuedAt, t.InferStartAt, t.InferEndAt, t.RepliedAt} {
		if b, ok = jsonshape.AppendTime(append(b, timingKeys[i]...), at); !ok {
			return b, false
		}
	}
	b = append(b, '}')
	if v.Err != "" {
		b = jsonshape.AppendString(append(b, `,"err":`...), v.Err)
	}
	return append(b, '}'), true
}

// decodeRequest decodes body into *dst if body has exactly the shape
// appendRequest writes, its client_uid and model read through in (a nil in
// allocates them). Like json.Unmarshal it assigns only the fields body
// holds; unlike it, it assigns nothing when it declines.
func decodeRequest(body []byte, dst *InferenceRequest, in *Interner) bool {
	c := jsonshape.Cursor{P: body}
	v := *dst
	c.Lit(`{"request_uid":`)
	v.RequestUID = stringAt(&c, nil, "")
	c.Lit(`,"client_uid":`)
	v.ClientUID = stringAt(&c, in, "")
	c.Lit(`,"model":`)
	v.Model = stringAt(&c, in, "")
	c.Lit(`,"prompt":`)
	v.Prompt = stringAt(&c, nil, "")
	if c.Has(`,"max_tokens":`) {
		v.MaxTokens = intAt(&c)
	}
	c.Lit(`,"sent_at":`)
	timeAt(&c, &v.SentAt)
	c.Lit(`}`)
	if !c.End() {
		return false
	}
	*dst = v
	return true
}

// decodeReply is decodeRequest of a reply, its service_uid and model read
// through in and its request_uid known itself when the bytes spell it.
func decodeReply(body []byte, dst *InferenceReply, in *Interner, known string) bool {
	c := jsonshape.Cursor{P: body}
	v := *dst
	c.Lit(`{"request_uid":`)
	v.RequestUID = stringAt(&c, nil, known)
	c.Lit(`,"service_uid":`)
	v.ServiceUID = stringAt(&c, in, "")
	c.Lit(`,"model":`)
	v.Model = stringAt(&c, in, "")
	c.Lit(`,"text":`)
	v.Text = stringAt(&c, nil, "")
	c.Lit(`,"prompt_tokens":`)
	v.PromptTokens = intAt(&c)
	c.Lit(`,"output_tokens":`)
	v.OutputTokens = intAt(&c)
	t := &v.Timing
	for i, at := range [5]*time.Time{&t.ReceivedAt, &t.DequeuedAt, &t.InferStartAt, &t.InferEndAt, &t.RepliedAt} {
		c.Lit(timingKeys[i])
		timeAt(&c, at)
	}
	c.Lit(`}`)
	if c.Has(`,"err":`) {
		v.Err = stringAt(&c, nil, "")
	}
	c.Lit(`}`)
	if !c.End() {
		return false
	}
	*dst = v
	return true
}

// stringAt reads a string: known itself when the literal spells it plainly,
// else in's copy of it (Interner; a nil in allocates). One with an escape
// or a non-ASCII byte goes to encoding/json, alone: the rest of the body
// stays on the fast path.
func stringAt(c *jsonshape.Cursor, in *Interner, known string) string {
	v, plain := c.Quoted()
	if !c.OK() {
		return ""
	}
	if plain {
		b := c.P[v.Lo:v.Hi]
		if string(b) == known {
			return known
		}
		return in.intern(b)
	}
	var s string
	if json.Unmarshal(c.P[v.Lo-1:v.Hi+1], &s) != nil {
		c.Fail()
	}
	return s
}

// intAt reads an int as strconv.AppendInt writes one.
func intAt(c *jsonshape.Cursor) int {
	neg := c.Has(`-`)
	u := c.Uint()
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	if u > limit || (neg && u == 0) {
		c.Fail()
	}
	if neg {
		return -int(u)
	}
	return int(u)
}

// timeAt reads a timestamp through the decoder encoding/json would call.
func timeAt(c *jsonshape.Cursor, t *time.Time) {
	v := c.Str()
	if c.OK() && t.UnmarshalJSON(c.P[v.Lo-1:v.Hi+1]) != nil { // quotes included
		c.Fail()
	}
}
