package proto

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
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
// every place it is wired in: the bytes are the oracle's, or the encoder
// declined and the oracle's verdict is what the caller sees.
func FuzzBodyEncodeMatchesJSON(f *testing.F) {
	year := func(y int) int64 { return time.Date(y, 6, 1, 0, 0, 0, 0, time.UTC).Unix() }
	f.Add("req.000001", "client.0", "noop", "hello", 16, 0, false, int64(1741064767), int64(0), int32(0), false)
	f.Add(`a"b`, `c\d`, "<e>&f", "g\x00\x1f\x7f\n\r\t\b\f", -1, 1<<40, true, int64(1), int64(123456789), int32(7*3600), false)
	f.Add("\xff\xfe", "\u2028\u2029", "é日本", "\xed\xa0\x80\xe2\x80", 0, -7, false, int64(1), int64(999999999), int32(-3600-1800), true)
	f.Add("", "", "", "", 0, 0, false, int64(zeroTimeUnix), int64(0), int32(0), false)
	f.Add("", "", "", "", 0, 0, false, year(-1), int64(0), int32(0), false)
	f.Add("", "", "", "", 0, 0, false, year(9999), int64(500), int32(59), false)
	f.Add("", "", "", "", 0, 0, true, year(10000), int64(0), int32(0), false)
	f.Add("", "", "", "", 0, 0, false, int64(0), int64(0), int32(23*3600+59*60), true)
	f.Add("", "", "", "", 0, 0, false, int64(0), int64(0), int32(-23*3600-59*60), false)
	f.Add("", "", "", "", 0, 0, false, int64(0), int64(0), int32(24*3600), false)
	f.Add("", "", "", "", 0, 0, false, int64(0), int64(0), int32(-100*3600), false)

	f.Fuzz(func(t *testing.T, a, b, c, d string, n, m int, flag bool, sec, nsec int64, zone int32, mono bool) {
		at := fuzzTime(sec, nsec, zone, mono)
		later := at.Add(time.Duration(m))
		for _, body := range []any{
			InferenceRequest{RequestUID: a, ClientUID: b, Model: c, Prompt: d, MaxTokens: n, NoBatch: flag, SentAt: at},
			InferenceReply{RequestUID: a, ServiceUID: b, Model: c, Text: d, PromptTokens: n, OutputTokens: m,
				Timing: Timing{ReceivedAt: at, DequeuedAt: later, InferStartAt: at.UTC(), InferEndAt: later, RepliedAt: at}},
			InferenceReply{Text: a, Timing: Timing{RepliedAt: later}, Err: d},
		} {
			want, wantErr := json.Marshal(body)
			got, ok := appendBody([]byte("prefix"), body)
			if ok != (wantErr == nil) {
				t.Fatalf("%+v: hand encoder ok=%v, json.Marshal err %v", body, ok, wantErr)
			}
			if ok && string(got) != "prefix"+string(want) {
				t.Fatalf("%+v:\n got %q\nwant %q", body, got[len("prefix"):], want)
			}

			env, err := NewEnvelope(KindRequest, 1, "from", "to", time.Time{}, body)
			if err != nil {
				t.Fatal(err)
			}
			if n := env.EncodedBodyLen(); n != len(want) {
				t.Fatalf("%+v: EncodedBodyLen %d, json.Marshal %d bytes (err %v)", body, n, len(want), wantErr)
			}
			framed := env // AppendFrame encodes into the frame, WireBody into the envelope
			frame, err := AppendFrame([]byte("prefix"), &framed)
			if (err == nil) != (wantErr == nil) || framed.Body != nil {
				t.Fatalf("%+v: AppendFrame err %v (cached %q), json.Marshal err %v", body, err, framed.Body, wantErr)
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
			raw, err := env.WireBody()
			if (err == nil) != (wantErr == nil) || !bytes.Equal(raw, want) {
				t.Fatalf("%+v: WireBody %q (%v), json.Marshal %q (%v)", body, raw, err, want, wantErr)
			}
		}
	})
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
		{RequestUID: "r", Prompt: "p", MaxTokens: -12, NoBatch: true},
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
		MaxTokens: 99, NoBatch: true, SentAt: prefilledAt}
	prefilledReply = InferenceReply{RequestUID: "old", ServiceUID: "old", Model: "old", Text: "old",
		PromptTokens: 99, OutputTokens: 99, Err: "old",
		Timing: Timing{ReceivedAt: prefilledAt, DequeuedAt: prefilledAt, InferStartAt: prefilledAt, InferEndAt: prefilledAt, RepliedAt: prefilledAt}}
)

// checkDecode decodes body into a pre-filled T through the fast path, through
// Envelope.Decode and through encoding/json: the fast path may decline (and
// then touches nothing), never differ; Decode has encoding/json's verdict
// and value whichever path took the body. It reports whether the fast path
// took it.
func checkDecode[T any](t *testing.T, kind Kind, body []byte, prefilled T) bool {
	t.Helper()
	slow := prefilled
	slowErr := json.Unmarshal(body, &slow)
	fast := prefilled
	took := decodeBody(body, &fast)
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

// FuzzBodyDecodeMatchesJSON throws arbitrary bytes at the body decoder,
// starting from the writer's shape and everything one byte away from it.
func FuzzBodyDecodeMatchesJSON(f *testing.F) {
	reqs, replies := writerShapeBodies(f)
	for _, body := range append(reqs, replies...) {
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
// encoder writes into the caller's buffer, the decoder allocates the four
// strings and nothing else.
func TestBodyCodecAllocs(t *testing.T) {
	req := InferenceRequest{RequestUID: "client.0.req.000001", ClientUID: "client.0", Model: "noop",
		Prompt: string(bytes.Repeat([]byte("x"), 8<<10)), SentAt: t0}
	env, err := NewEnvelope(KindRequest, 1, "client.0", "svc.0", t0, req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 16<<10)
	if n := testing.AllocsPerRun(100, func() {
		e := env
		if buf, err = AppendFrame(buf[:0], &e); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("AppendFrame of a typed request: %.1f allocs, budget 0", n)
	}
	wire, err := DecodeFrame(buf[4:])
	if err != nil {
		t.Fatal(err)
	}
	var got InferenceRequest
	if n := testing.AllocsPerRun(100, func() {
		if err := wire.Decode(KindRequest, &got); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("Decode of a wire request: %.1f allocs, budget 4", n)
	}
	if got != req {
		t.Fatalf("decoded %+v, want %+v", got, req)
	}
}
