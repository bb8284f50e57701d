package proto

// Hand-written JSON codec for the two bodies that cross the wire once per
// request: InferenceRequest and InferenceReply. The bytes are
// encoding/json's, so agents with and without it interoperate. The encoder
// emits exactly what json.Marshal emits; the decoder reads exactly that
// shape and declines on any deviation (unknown or reordered key, whitespace,
// non-canonical number, a timestamp Time.UnmarshalJSON refuses), leaving the
// body to json.Unmarshal. Every other payload is encoding/json's throughout.

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

// appendBody appends the encoding/json bytes of a request or reply body. ok
// is false, with b left in an unspecified state, for every other payload and
// for a timestamp Time.MarshalJSON refuses: json.Marshal then encodes the
// one or reports the other.
func appendBody(b []byte, body any) (_ []byte, ok bool) {
	switch v := body.(type) {
	case InferenceRequest:
		b = jsonshape.AppendString(append(b, `{"request_uid":`...), v.RequestUID)
		b = jsonshape.AppendString(append(b, `,"client_uid":`...), v.ClientUID)
		b = jsonshape.AppendString(append(b, `,"model":`...), v.Model)
		b = jsonshape.AppendString(append(b, `,"prompt":`...), v.Prompt)
		if v.MaxTokens != 0 {
			b = strconv.AppendInt(append(b, `,"max_tokens":`...), int64(v.MaxTokens), 10)
		}
		if v.NoBatch {
			b = append(b, `,"no_batch":true`...)
		}
		b, ok = jsonshape.AppendTime(append(b, `,"sent_at":`...), v.SentAt)
		return append(b, '}'), ok
	case InferenceReply:
		b = jsonshape.AppendString(append(b, `{"request_uid":`...), v.RequestUID)
		b = jsonshape.AppendString(append(b, `,"service_uid":`...), v.ServiceUID)
		b = jsonshape.AppendString(append(b, `,"model":`...), v.Model)
		b = jsonshape.AppendString(append(b, `,"text":`...), v.Text)
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
	return b, false
}

// decodeBody decodes body into out if out is a request or a reply and body
// has exactly the shape appendBody writes. Like json.Unmarshal it assigns
// only the fields body holds; unlike it, it assigns nothing when it declines.
func decodeBody(body []byte, out any) bool {
	c := jsonshape.Cursor{P: body}
	switch dst := out.(type) {
	case *InferenceRequest:
		v := *dst
		c.Lit(`{"request_uid":`)
		v.RequestUID = stringAt(&c)
		c.Lit(`,"client_uid":`)
		v.ClientUID = stringAt(&c)
		c.Lit(`,"model":`)
		v.Model = stringAt(&c)
		c.Lit(`,"prompt":`)
		v.Prompt = stringAt(&c)
		if c.Has(`,"max_tokens":`) {
			v.MaxTokens = intAt(&c)
		}
		if c.Has(`,"no_batch":true`) {
			v.NoBatch = true
		}
		c.Lit(`,"sent_at":`)
		timeAt(&c, &v.SentAt)
		c.Lit(`}`)
		if c.End() {
			*dst = v
			return true
		}
	case *InferenceReply:
		v := *dst
		c.Lit(`{"request_uid":`)
		v.RequestUID = stringAt(&c)
		c.Lit(`,"service_uid":`)
		v.ServiceUID = stringAt(&c)
		c.Lit(`,"model":`)
		v.Model = stringAt(&c)
		c.Lit(`,"text":`)
		v.Text = stringAt(&c)
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
			v.Err = stringAt(&c)
		}
		c.Lit(`}`)
		if c.End() {
			*dst = v
			return true
		}
	}
	return false
}

// stringAt reads a string. One with an escape or a non-ASCII byte goes to
// encoding/json, alone: the rest of the body stays on the fast path.
func stringAt(c *jsonshape.Cursor) string {
	v, plain := c.Quoted()
	if plain || !c.OK() {
		return string(c.P[v.Lo:v.Hi])
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
