package proto

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
	"unsafe"
)

// zeroTimeUnix is the Unix second of the zero time.Time.
const zeroTimeUnix = -62135596800

// fuzzTime builds the timestamps of the encode fuzzer: any instant in any
// fixed zone, with or without a monotonic reading.
func fuzzTime(sec, nsec int64, zone int32, mono bool) time.Time {
	at := time.Unix(sec, nsec).UTC()
	if mono {
		at = time.Now().Add(time.Duration(nsec))
	}
	if zone != 0 {
		at = at.In(time.FixedZone("z", int(zone)))
	}
	return at
}

// FuzzBodyEncodeMatchesJSON holds the hand encoder to json.Marshal through
// every place it is wired in, for the half of an exchange (NewRequest,
// Answer) and for the Body NewEnvelope encodes at once: the bytes are the
// oracle's, or the encoder declined and the oracle's verdict is what the
// caller sees.
func FuzzBodyEncodeMatchesJSON(f *testing.F) {
	year := func(y int) int64 { return time.Date(y, 6, 1, 0, 0, 0, 0, time.UTC).Unix() }
	f.Add("req.000001", "client.0", "noop", "hello", 16, 0, int64(1741064767), int64(0), int32(0), false)
	f.Add(`a"b`, `c\d`, "<e>&f", "g\x00\x1f\x7f\n\r\t\b\f", -1, 1<<40, int64(1), int64(123456789), int32(7*3600), false)
	f.Add("\xff\xfe", "\u2028\u2029", "é日本", "\xed\xa0\x80\xe2\x80", 0, -7, int64(1), int64(999999999), int32(-3600-1800), true)
	f.Add("", "", "", "", 0, 0, int64(zeroTimeUnix), int64(0), int32(0), false)
	f.Add("", "", "", "", 0, 0, year(-1), int64(0), int32(0), false)
	f.Add("", "", "", "", 0, 0, year(9999), int64(500), int32(59), false)
	f.Add("", "", "", "", 0, 0, year(10000), int64(0), int32(0), false)
	f.Add("", "", "", "", 0, 0, int64(0), int64(0), int32(23*3600+59*60), true)
	f.Add("", "", "", "", 0, 0, int64(0), int64(0), int32(-23*3600-59*60), false)
	f.Add("", "", "", "", 0, 0, int64(0), int64(0), int32(24*3600), false)
	f.Add("", "", "", "", 0, 0, int64(0), int64(0), int32(-100*3600), false)
	f.Add("client.0.req.000001", "svc.0", "vit-base", "", 8, 12, int64(1741064767), int64(0), int32(0), false) // a drawn reply of 12 words

	f.Fuzz(func(t *testing.T, a, b, c, d string, n, m int, sec, nsec int64, zone int32, mono bool) {
		at := fuzzTime(sec, nsec, zone, mono)
		later := at.Add(time.Duration(m))
		for _, body := range []any{
			InferenceRequest{RequestUID: a, ClientUID: b, Model: c, Prompt: d, MaxTokens: n, SentAt: at},
			InferenceReply{RequestUID: a, ServiceUID: b, Model: c, Text: d, PromptTokens: n, OutputTokens: m,
				Timing: Timing{ReceivedAt: at, DequeuedAt: later, InferStartAt: at.UTC(), InferEndAt: later, RepliedAt: at}},
			InferenceReply{Text: a, Timing: Timing{RepliedAt: later}, Err: d},
			// A drawn reply: every encoder must see it spelled.
			InferenceReply{RequestUID: a, ServiceUID: b, Model: c, PromptTokens: n, OutputTokens: int(uint8(m)),
				Timing: Timing{ReceivedAt: at, RepliedAt: later}, Err: d, TextFrom: uint64(sec), TextDrawn: true},
		} {
			spelled := body // what the oracle and the hand encoder are handed
			if r, ok := body.(InferenceReply); ok && r.TextDrawn {
				r.Text, r.TextFrom, r.TextDrawn = r.Words(), 0, false
				spelled = r
			}
			want, wantErr := json.Marshal(spelled)
			got, ok := appendBody([]byte("prefix"), spelled)
			if ok != (wantErr == nil) {
				t.Fatalf("%+v: hand encoder ok=%v, json.Marshal err %v", body, ok, wantErr)
			}
			if ok && string(got) != "prefix"+string(want) {
				t.Fatalf("%+v:\n got %q\nwant %q", body, got[len("prefix"):], want)
			}

			if wantErr == nil {
				checkExchangeDecode(t, want, spelled)
			}

			// The same body as the half of an exchange its envelope names,
			// and as the Body NewEnvelope encodes at once.
			kind, exch := KindRequest, Envelope{}
			switch v := body.(type) {
			case InferenceRequest:
				exch = NewRequest(1, "from", "to", v)
			case InferenceReply:
				kind, exch = KindReply, NewRequest(1, "to", "from", InferenceRequest{}).Answer("from", time.Time{}, &v)
			}
			envs := []Envelope{exch}
			eager, err := NewEnvelope(kind, 1, "from", "to", time.Time{}, body)
			if (err == nil) != (wantErr == nil) || !bytes.Equal(eager.Body, want) {
				t.Fatalf("%+v: NewEnvelope Body %q (%v), json.Marshal %q (%v)", body, eager.Body, err, want, wantErr)
			}
			if err == nil {
				envs = append(envs, eager)
			}
			for _, env := range envs {
				framed := env // AppendFrame encodes into the frame, wireBody into the envelope
				frame, err := AppendFrame([]byte("prefix"), &framed)
				if (err == nil) != (wantErr == nil) || (framed.Body == nil) != (env.Body == nil) {
					t.Fatalf("%+v: AppendFrame err %v (body %q), json.Marshal err %v", body, err, framed.Body, wantErr)
				}
				if err != nil && string(frame) != "prefix" {
					t.Fatalf("%+v: failed AppendFrame left %q", body, frame)
				}
				if err == nil {
					back, err := DecodeFrame(frame[len("prefix")+4:])
					if err != nil || !bytes.Equal(back.Body, want) {
						t.Fatalf("%+v: frame carries %q (%v), want %q", body, back.Body, err, want)
					}
				}
				raw, err := env.wireBody()
				if (err == nil) != (wantErr == nil) || !bytes.Equal(raw, want) {
					t.Fatalf("%+v: wireBody %q (%v), json.Marshal %q (%v)", body, raw, err, want, wantErr)
				}
			}
		}
	})
}

// TestDrawnReplyEncodesSpelled: a drawn reply goes on the wire as the bytes
// json.Marshal gives it with its text spelled, the text pinned in
// llm's TestGenerateTextGolden for this state, model and length. That
// holds for the answer of an exchange, through the hand codec and through
// the json.Marshal fallback the hand codec leaves a year-10000 timestamp
// to, where both refuse alike, and for the Body NewEnvelope encodes, which
// refuses that timestamp itself.
func TestDrawnReplyEncodesSpelled(t *testing.T) {
	const text = "[llama-8b] dose cell pilot signature sample annotation pilot analysis model signature signature protein response inference dose pilot dose annotation response annotation model sample analysis sample"
	for _, replied := range []time.Time{t0.Add(time.Second), time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)} {
		drawn := InferenceReply{RequestUID: "client.0.req.000001", ServiceUID: "svc.0", Model: "llama-8b",
			PromptTokens: 3, OutputTokens: 24, Timing: Timing{ReceivedAt: t0, RepliedAt: replied},
			TextFrom: 2024, TextDrawn: true}
		if got := drawn.Words(); got != text {
			t.Fatalf("Words() = %q, want %q", got, text)
		}
		spelled := drawn
		spelled.Text, spelled.TextFrom, spelled.TextDrawn = text, 0, false
		want, wantErr := json.Marshal(spelled)
		_, handOK := appendBody(nil, spelled)
		if handOK != (wantErr == nil) {
			t.Fatalf("replied %v: hand codec ok=%v, json.Marshal err %v", replied, handOK, wantErr)
		}
		envs := []Envelope{NewRequest(1, "client.0", "svc.0", InferenceRequest{}).Answer("svc.0", t0, &drawn)}
		eager, err := NewEnvelope(KindReply, 1, "svc.0", "client.0", t0, drawn)
		if (err == nil) != (wantErr == nil) || !bytes.Equal(eager.Body, want) {
			t.Fatalf("replied %v: NewEnvelope Body %s (%v), want %s (%v)", replied, eager.Body, err, want, wantErr)
		}
		if err == nil {
			envs = append(envs, eager)
		}
		for _, env := range envs {
			framed := env // AppendFrame encodes into the frame, wireBody into the envelope
			raw, err := env.wireBody()
			if (err == nil) != (wantErr == nil) || !bytes.Equal(raw, want) {
				t.Fatalf("replied %v: wireBody %s (%v), want %s (%v)", replied, raw, err, want, wantErr)
			}
			frame, err := AppendFrame(nil, &framed)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("replied %v: AppendFrame err %v, want %v", replied, err, wantErr)
			}
			if err != nil {
				continue
			}
			wire, err := DecodeFrame(frame[4:])
			if err != nil || !bytes.Equal(wire.Body, want) {
				t.Fatalf("frame carries %s (%v), want %s", wire.Body, err, want)
			}
			if back, err := wire.DecodeReply(); err != nil || back.Text != text || back.TextDrawn || back.Words() != text {
				t.Fatalf("framed reply decodes to %+v (%v)", back, err)
			}
		}
	}
}

// TestSpelledReplyAllocBudget: a drawn reply spells its words from its
// draw's first state with a counter, so the text is the one object, as it
// is for GenerateText: no Source is made to replay the draws.
func TestSpelledReplyAllocBudget(t *testing.T) {
	drawn := InferenceReply{Model: "llama-8b", OutputTokens: 24, TextFrom: 2024, TextDrawn: true}
	var text string
	if n := testing.AllocsPerRun(100, func() { text = drawn.Words() }); n != 1 {
		t.Errorf("Words() of a drawn reply allocates %.1f objects, budget 1", n)
	}
	if text == "" {
		t.Fatal("drawn reply spells no text")
	}
}

// TestExchangeAnswer: a request built by NewRequest and its Answer share
// one exchange under the answer's own header (TestTypedDecode and
// FuzzBodyEncodeMatchesJSON read both halves down every path). A request
// that is not an exchange, one NewEnvelope encoded or one decoded from a
// frame that DecodeExchange never saw, is answered into an exchange of its
// own that holds a copy of the reply and encodes the frame NewEnvelope's
// reply does; Release leaves an encoded envelope alone.
func TestExchangeAnswer(t *testing.T) {
	req := InferenceRequest{RequestUID: "client.0.req.000001", ClientUID: "client.0", Model: "noop", SentAt: t0}
	rep := InferenceReply{RequestUID: req.RequestUID, ServiceUID: "svc.0", Model: "noop", Text: "ok"}
	sent := t0.Add(time.Second)
	xreq := NewRequest(7, "client.0", "svc.0", req)
	xrep := xreq.Answer("svc.0", sent, &rep)
	if xreq.Sent != t0 || xrep.Kind != KindReply || xrep.ID != 7 || xrep.From != "svc.0" || xrep.To != "client.0" || xrep.Sent != sent {
		t.Fatalf("exchange headers: request %+v, answer %+v", xreq, xrep)
	}
	if got, err := xreq.DecodeRequest(); err != nil || got != req {
		t.Errorf("answered request decodes to %+v, %v", got, err)
	}
	xreq.Release()

	sreq, _ := NewEnvelope(KindRequest, 7, "client.0", "svc.0", t0, req)
	answered := sreq.Answer("svc.0", sent, &rep)
	rep.Text = "changed after the answer"
	if got, err := answered.DecodeReply(); err != nil || got.Text != "ok" {
		t.Errorf("answer to an encoded request decodes to %+v, %v", got, err)
	}
	sreq.Release()
	if got, err := sreq.DecodeRequest(); err != nil || got != req {
		t.Errorf("released encoded request decodes to %+v, %v", got, err)
	}

	frame, err := AppendFrame(nil, &sreq)
	if err != nil {
		t.Fatal(err)
	}
	wreq, err := DecodeFrame(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	wrep := wreq.Answer("svc.0", sent, &rep)
	eager, _ := NewEnvelope(KindReply, 7, "svc.0", "client.0", sent, rep)
	got, err := AppendFrame(nil, &wrep)
	want, _ := AppendFrame(nil, &eager)
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("answer to a frame-decoded request encodes %q, %v; NewEnvelope's reply %q", got, err, want)
	}
	wrep.Release()
}

// checkExchangeDecode holds DecodeExchange of body, the encoding of v, to
// the hand decoder's verdict and value with no interner and no known UID: a request decoded into a pooled exchange,
// a reply into the exchange of a request whose UID is the body's, a strict
// prefix of it or longer than it (the fuzzer's escaped UIDs cover a body
// that holds it escaped), all through one interner, so that its strings
// are read both fresh and interned. A reply whose body spells the known UID
// plainly shares the request's string.
func checkExchangeDecode(t *testing.T, body []byte, v any) {
	t.Helper()
	in := NewInterner()
	switch v := v.(type) {
	case InferenceRequest:
		var plain InferenceRequest
		took := handDecode(body, &plain)
		for i := 0; i < 2; i++ {
			e := Envelope{Kind: KindRequest, Body: body}
			if e.DecodeExchange(Envelope{}, in) != took {
				t.Fatalf("%q: DecodeExchange took it %v, the hand decoder %v", body, !took, took)
			}
			if got, err := e.DecodeRequest(); took && (err != nil || !reflect.DeepEqual(got, plain)) {
				t.Fatalf("%q:\nexchange %+v (%v)\nplain    %+v", body, got, err, plain)
			}
			e.Release()
		}
	case InferenceReply:
		var plain InferenceReply
		took := handDecode(body, &plain)
		uid := v.RequestUID
		for _, known := range []string{uid, uid[:max(len(uid)-1, 0)], uid + "x"} {
			req := NewRequest(1, "to", "from", InferenceRequest{RequestUID: known})
			e := Envelope{Kind: KindReply, Body: body}
			if e.DecodeExchange(req, in) != took {
				t.Fatalf("%q, request UID %q: DecodeExchange took it %v, the hand decoder %v", body, known, !took, took)
			}
			if took {
				got, err := e.DecodeReply()
				if err != nil || !reflect.DeepEqual(got, plain) {
					t.Fatalf("%q, request UID %q:\nexchange %+v (%v)\nplain    %+v", body, known, got, err, plain)
				}
				if got.RequestUID == known && known != "" && !strings.ContainsFunc(known, escaped) && unsafe.StringData(got.RequestUID) != unsafe.StringData(known) {
					t.Fatalf("%q: request UID %q decoded to a string of its own", body, known)
				}
			}
			req.Release()
		}
	}
}

// handDecode runs the hand decoder of a request or reply on body into out,
// with no interner and no known request UID; it reports false for any
// other out.
func handDecode(body []byte, out any) bool {
	switch dst := out.(type) {
	case *InferenceRequest:
		return decodeRequest(body, dst, nil)
	case *InferenceReply:
		return decodeReply(body, dst, nil, "")
	}
	return false
}

// escaped reports whether encoding/json writes r other than as itself, or
// r is not ASCII: a string holding one is read the slow way.
func escaped(r rune) bool {
	return r < 0x20 || r >= utf8.RuneSelf || strings.ContainsRune(`"\<>&`, r)
}

// writerShapeBodies are bodies as the encoder writes them, optional fields
// in and out, and a prompt the string fast path has to hand to encoding/json.
func writerShapeBodies(t testing.TB) (reqs, replies [][]byte) {
	at := time.Date(2025, 3, 17, 12, 0, 0, 123456789, time.FixedZone("z", -3600))
	tm := Timing{ReceivedAt: at, DequeuedAt: at.UTC(), InferStartAt: at.Add(time.Second), RepliedAt: at.Add(time.Minute)}
	marshal := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, v := range []InferenceRequest{
		{RequestUID: "client.0.req.000001", ClientUID: "client.0", Model: "noop", Prompt: "hello world", SentAt: at},
		{RequestUID: "r", Prompt: "p", MaxTokens: -12},
		{RequestUID: "r", Model: "llama-8b", Prompt: "line one\nsaid \"two\" <é> \xff\u2028", MaxTokens: 1 << 40, SentAt: at.UTC()},
	} {
		reqs = append(reqs, marshal(v))
	}
	for _, v := range []InferenceReply{
		{RequestUID: "client.0.req.000001", ServiceUID: "svc.0", Model: "noop", Text: "ok", PromptTokens: 3, OutputTokens: 1, Timing: tm},
		{RequestUID: "r", Text: "tab\tand \\ and &", OutputTokens: -1, Timing: tm, Err: "queue \"full\""},
		{},
	} {
		replies = append(replies, marshal(v))
	}
	return reqs, replies
}

// prefilled are decode targets with every field set: json.Unmarshal leaves
// a field the body does not hold alone, and so must the fast path.
var (
	prefilledAt      = time.Date(1999, 12, 31, 23, 59, 59, 0, time.UTC)
	prefilledRequest = InferenceRequest{RequestUID: "old", ClientUID: "old", Model: "old", Prompt: "old",
		MaxTokens: 99, SentAt: prefilledAt}
	prefilledReply = InferenceReply{RequestUID: "old", ServiceUID: "old", Model: "old", Text: "old",
		PromptTokens: 99, OutputTokens: 99, Err: "old",
		Timing: Timing{ReceivedAt: prefilledAt, DequeuedAt: prefilledAt, InferStartAt: prefilledAt, InferEndAt: prefilledAt, RepliedAt: prefilledAt}}
)

// checkDecode decodes body into a pre-filled T through the fast path, through
// Envelope.Decode and through encoding/json: the fast path may decline (and
// then touches nothing), never differ; Decode of a body has encoding/json's
// verdict and value. It reports whether the fast path took it.
func checkDecode[T any](t *testing.T, kind Kind, body []byte, prefilled T) bool {
	t.Helper()
	slow := prefilled
	slowErr := json.Unmarshal(body, &slow)
	fast := prefilled
	took := handDecode(body, &fast)
	switch {
	case took && slowErr != nil:
		t.Fatalf("fast path accepted %q, encoding/json: %v", body, slowErr)
	case took && !reflect.DeepEqual(fast, slow):
		t.Fatalf("%q:\nfast %+v\njson %+v", body, fast, slow)
	case !took && !reflect.DeepEqual(fast, prefilled):
		t.Fatalf("%q: declined, yet wrote %+v", body, fast)
	}
	got := prefilled
	err := Envelope{Kind: kind, Body: body}.Decode(kind, &got)
	if (err == nil) != (slowErr == nil) || !reflect.DeepEqual(got, slow) {
		t.Fatalf("%q:\nDecode %+v (%v)\njson   %+v (%v)", body, got, err, slow, slowErr)
	}
	return took
}

// checkTypedDecode holds a typed decoder (DecodeRequest, DecodeReply) to
// encoding/json decoding body into a zero T: the same error verdict, and
// on success the same value.
func checkTypedDecode[T any](t *testing.T, kind Kind, body []byte, decode func(Envelope) (T, error)) {
	t.Helper()
	var slow T
	slowErr := json.Unmarshal(body, &slow)
	got, err := decode(Envelope{Kind: kind, Body: body})
	if (err == nil) != (slowErr == nil) || (err == nil && !reflect.DeepEqual(got, slow)) {
		t.Fatalf("%q:\ntyped %+v (%v)\njson  %+v (%v)", body, got, err, slow, slowErr)
	}
}

// FuzzBodyDecodeMatchesJSON throws arbitrary bytes at the body decoder,
// starting from the writer's shape and everything one byte away from it.
// The shapes include a request as an older writer sent it, with the since
// dropped no_batch field, which Decode must skip as encoding/json does.
func FuzzBodyDecodeMatchesJSON(f *testing.F) {
	reqs, replies := writerShapeBodies(f)
	legacy := []byte(`{"request_uid":"r","client_uid":"","model":"","prompt":"p","max_tokens":-12,"no_batch":true,"sent_at":"0001-01-01T00:00:00Z"}`)
	for _, body := range append(append(reqs, legacy), replies...) {
		f.Add(body)
		for i := range body {
			for _, c := range []byte{' ', '"', '\\', '0', 0xff} {
				if m := bytes.Clone(body); m[i] != c {
					m[i] = c
					f.Add(m)
				}
			}
			f.Add(append(bytes.Clone(body[:i]), body[i+1:]...))
		}
	}
	for _, s := range []string{
		``, `{}`, `null`, `[]`, `{"request_uid":"r"}`,
		`{"request_uid":"r","client_uid":"","model":"","prompt":"","max_tokens":0,"sent_at":"0001-01-01T00:00:00Z"}`,
		`{"request_uid":"r","client_uid":"","model":"","prompt":"","max_tokens":-0,"sent_at":"0001-01-01T00:00:00Z"}`,
		`{"request_uid":"r","client_uid":"","model":"","prompt":"","max_tokens":01,"sent_at":"0001-01-01T00:00:00Z"}`,
		`{"request_uid":"r","client_uid":"","model":"","prompt":"","max_tokens":1e2,"sent_at":"0001-01-01T00:00:00Z"}`,
		`{"request_uid":"r","client_uid":"","model":"","prompt":"","max_tokens":9223372036854775807,"sent_at":"0001-01-01T00:00:00Z"}`,
		`{"request_uid":"r","client_uid":"","model":"","prompt":"","max_tokens":9223372036854775808,"sent_at":"0001-01-01T00:00:00Z"}`,
		`{"request_uid":"r","client_uid":"","model":"","prompt":"","max_tokens":-9223372036854775808,"sent_at":"0001-01-01T00:00:00Z"}`,
		`{"request_uid":"r","client_uid":"","model":"","prompt":"","max_tokens":-9223372036854775809,"sent_at":"0001-01-01T00:00:00Z"}`,
		`{"request_uid":"r","client_uid":"","model":"","prompt":"","no_batch":false,"sent_at":"0001-01-01T00:00:00Z"}`,
		`{"request_uid":"r","client_uid":"","model":"","prompt":"","no_batch":true,"max_tokens":1,"sent_at":"0001-01-01T00:00:00Z"}`,
		`{"request_uid":"r","client_uid":"","model":"","prompt":"","sent_at":null}`,
		`{"request_uid":"r","client_uid":"","model":"","prompt":"","sent_at":"10000-01-01T00:00:00Z"}`,
		`{"request_uid":"r","client_uid":"","model":"","prompt":"","sent_at":"2025-03-04T05:06:07+24:00"}`,
		`{"request_uid":"r","client_uid":"","model":"","prompt":"","sent_at":"2025-03-04T05:06:07,5Z"}`,
		`{"request_uid":"r","client_uid":"","model":"","prompt":"","sent_at":"2025-03-04T05:06:07Z"`,
		`{"request_uid":"r","client_uid":"","model":"","prompt":"","sent_at":"2025-03-04T05:06:07Z"} `,
		`{"request_uid":"r","client_uid":"","model":"","prompt":"","sent_at":"2025-03-04T05:06:07Z","x":1}`,
		`{"request_uid":"r","client_uid":"","model":"","prompt":"","sent_at":"2025-03-04T05:06:07Z","prompt":"again"}`,
		`{"REQUEST_UID":"r","client_uid":"","model":"","prompt":"","sent_at":"2025-03-04T05:06:07Z"}`,
		`{"request_uid":"\u00e9\ud83d\ude00\ud800","client_uid":"\/","model":"\x","prompt":"","sent_at":"2025-03-04T05:06:07Z"}`,
		`{"request_uid":"r","client_uid":"","model":"","prompt":"a\","sent_at":"2025-03-04T05:06:07Z"}`,
		"{\"request_uid\":\"r\",\"client_uid\":\"\",\"model\":\"\",\"prompt\":\"raw\nnewline\",\"sent_at\":\"2025-03-04T05:06:07Z\"}",
		`{"request_uid":"r","client_uid":"","model":"","prompt":"","sent_at":"2025-03-04T05:06:07\u005a"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, KindRequest, body, prefilledRequest)
		checkDecode(t, KindReply, body, prefilledReply)
		checkTypedDecode(t, KindRequest, body, Envelope.DecodeRequest)
		checkTypedDecode(t, KindReply, body, Envelope.DecodeReply)
	})
}

// TestDecodeFastPathTakesWriterShape pins that the bodies the encoder emits
// do take the fast path: a decoder that declined everything would pass
// every differential check and save nothing.
func TestDecodeFastPathTakesWriterShape(t *testing.T) {
	reqs, replies := writerShapeBodies(t)
	for _, body := range reqs {
		if !checkDecode(t, KindRequest, body, prefilledRequest) {
			t.Errorf("request fast path declined %s", body)
		}
	}
	for _, body := range replies {
		if !checkDecode(t, KindReply, body, prefilledReply) {
			t.Errorf("reply fast path declined %s", body)
		}
	}
}

// TestBodyCodecAllocs pins what the codec saves on an 8 KiB request: the
// encoder writes an exchange's request into the caller's buffer, and the
// read loop's decode (DecodeExchange, no interner) and its handler's
// DecodeRequest allocate the four strings and nothing else.
func TestBodyCodecAllocs(t *testing.T) {
	req := InferenceRequest{RequestUID: "client.0.req.000001", ClientUID: "client.0", Model: "noop",
		Prompt: string(bytes.Repeat([]byte("x"), 8<<10)), SentAt: t0}
	env := NewRequest(1, "client.0", "svc.0", req)
	defer env.Release()
	buf := make([]byte, 0, 16<<10)
	var err error
	if n := testing.AllocsPerRun(100, func() {
		e := env
		if buf, err = AppendFrame(buf[:0], &e); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("AppendFrame of an exchange's request: %.1f allocs, budget 0", n)
	}
	wire, err := DecodeFrame(buf[4:])
	if err != nil {
		t.Fatal(err)
	}
	var got InferenceRequest
	if n := testing.AllocsPerRun(100, func() {
		e := wire
		if !e.DecodeExchange(Envelope{}, nil) {
			t.Fatal("DecodeExchange declined the writer's shape")
		}
		if got, err = e.DecodeRequest(); err != nil {
			t.Fatal(err)
		}
		e.Release()
	}); n > 4 {
		t.Errorf("DecodeExchange and DecodeRequest of a wire request: %.1f allocs, budget 4", n)
	}
	if got != req {
		t.Fatalf("decoded %+v, want %+v", got, req)
	}
}

// TestTypedDecode runs DecodeRequest and DecodeReply down each of their
// paths — the half of an exchange, a wire body a read loop decodes into an
// exchange (DecodeExchange, no interner), a body only encoding/json reads —
// and holds each to the value sent, to Decode's result and to its
// allocations: none in process; the four strings of a wire request, and
// the three of a wire reply whose request_uid is its request's own.
func TestTypedDecode(t *testing.T) {
	req := InferenceRequest{RequestUID: "client.0.req.000001", ClientUID: "client.0", Model: "noop",
		Prompt: "hello world", MaxTokens: 8, SentAt: t0}
	rep := InferenceReply{RequestUID: "client.0.req.000001", ServiceUID: "svc.0", Model: "noop", Text: "ok",
		PromptTokens: 3, OutputTokens: 1, Timing: Timing{ReceivedAt: t0, RepliedAt: t0.Add(time.Millisecond)}}
	xreq := NewRequest(1, "client.0", "svc.0", req)
	defer xreq.Release()
	xrep := xreq.Answer("svc.0", t0, &rep)
	wire := func(env Envelope) Envelope {
		frame, err := AppendFrame(nil, &env)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeFrame(frame[4:])
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	wreq, wrep := wire(xreq), wire(xrep)
	into := NewRequest(1, "client.0", "svc.0", req) // the client's request a wire reply lands in
	defer into.Release()
	// read is a read loop's decode: the envelope its reader then holds.
	read := func(e, req Envelope) Envelope {
		if !e.DecodeExchange(req, nil) {
			t.Fatalf("DecodeExchange declined the writer's %s", e.Kind)
		}
		return e
	}
	spaced := func(kind Kind, body any) Envelope { // whitespace: the hand codec declines
		raw, err := json.MarshalIndent(body, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return Envelope{Kind: kind, Body: raw}
	}
	for _, path := range []struct {
		name                 string
		renv, penv           func() Envelope
		done                 func(Envelope) // what the reader of a request does once done with it
		reqAllocs, repAllocs float64
	}{
		{"exchange", func() Envelope { return xreq }, func() Envelope { return xrep }, func(Envelope) {}, 0, 0},
		{"wire", func() Envelope { return read(wreq, Envelope{}) }, func() Envelope { return read(wrep, into) }, Envelope.Release, 4, 3},
		{"json", func() Envelope { return spaced(KindRequest, req) }, func() Envelope { return spaced(KindReply, rep) }, func(Envelope) {}, -1, -1},
	} {
		renv, penv := path.renv(), path.penv()
		var viaReq InferenceRequest
		var viaRep InferenceReply
		if err := renv.Decode(KindRequest, &viaReq); err != nil || viaReq != req {
			t.Errorf("%s: Decode of the request = %+v, %v; sent %+v", path.name, viaReq, err, req)
		}
		if err := penv.Decode(KindReply, &viaRep); err != nil || viaRep != rep {
			t.Errorf("%s: Decode of the reply = %+v, %v; sent %+v", path.name, viaRep, err, rep)
		}
		gotReq, err := renv.DecodeRequest()
		if err != nil || gotReq != req {
			t.Errorf("%s: DecodeRequest = %+v, %v; sent %+v", path.name, gotReq, err, req)
		}
		gotRep, err := penv.DecodeReply()
		if err != nil || gotRep != rep {
			t.Errorf("%s: DecodeReply = %+v, %v; sent %+v", path.name, gotRep, err, rep)
		}
		path.done(renv)
		if path.reqAllocs < 0 {
			continue
		}
		if n := testing.AllocsPerRun(100, func() {
			e := path.renv()
			gotReq, _ = e.DecodeRequest()
			path.done(e)
		}); n != path.reqAllocs {
			t.Errorf("%s: DecodeRequest allocates %.1f objects, want %g", path.name, n, path.reqAllocs)
		}
		if n := testing.AllocsPerRun(100, func() { gotRep, _ = path.penv().DecodeReply() }); n != path.repAllocs {
			t.Errorf("%s: DecodeReply allocates %.1f objects, want %g", path.name, n, path.repAllocs)
		}
	}
	if _, err := xrep.DecodeRequest(); err == nil {
		t.Error("DecodeRequest accepted a reply")
	}
	if _, err := (Envelope{Kind: KindReply, Body: []byte(`{"prompt_tokens":"x"}`)}).DecodeReply(); err == nil {
		t.Error("DecodeReply accepted a malformed body")
	}
}
