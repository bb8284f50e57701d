package proto

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2025, 3, 17, 12, 0, 0, 0, time.UTC)

func TestEnvelopeRoundTrip(t *testing.T) {
	req := InferenceRequest{
		RequestUID: "req.0001", ClientUID: "task.0002",
		Model: "llama-8b", Prompt: "hello", MaxTokens: 16, SentAt: t0,
	}
	env, err := NewEnvelope(KindRequest, 7, "task.0002", "service.0001", t0, req)
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != KindRequest || env.ID != 7 || env.From != "task.0002" {
		t.Fatalf("envelope header mismatch: %+v", env)
	}
	var got InferenceRequest
	if err := env.Decode(KindRequest, &got); err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("decoded %+v, want %+v", got, req)
	}
}

func TestDecodeWrongKind(t *testing.T) {
	env, _ := NewEnvelope(KindReply, 1, "a", "b", t0, InferenceReply{})
	var req InferenceRequest
	if err := env.Decode(KindRequest, &req); err == nil {
		t.Fatal("Decode accepted mismatched kind")
	}
}

func TestDecodeBadBody(t *testing.T) {
	env := Envelope{Kind: KindRequest, Body: []byte(`{"max_tokens":"nope"}`)}
	var req InferenceRequest
	if err := env.Decode(KindRequest, &req); err == nil {
		t.Fatal("Decode accepted malformed body")
	}
}

func TestNewEnvelopeUnmarshalable(t *testing.T) {
	if _, err := NewEnvelope(KindRequest, 1, "a", "b", t0, make(chan int)); err == nil {
		t.Fatal("NewEnvelope accepted unmarshalable body")
	}
}

func TestTimingDecomposition(t *testing.T) {
	tm := Timing{
		ReceivedAt:   t0,
		DequeuedAt:   t0.Add(10 * time.Millisecond),
		InferStartAt: t0.Add(12 * time.Millisecond),
		InferEndAt:   t0.Add(1012 * time.Millisecond),
		RepliedAt:    t0.Add(1015 * time.Millisecond),
	}
	if q := tm.QueueTime(); q != 10*time.Millisecond {
		t.Fatalf("QueueTime = %v", q)
	}
	if it := tm.InferTime(); it != time.Second {
		t.Fatalf("InferTime = %v", it)
	}
	if st := tm.ServiceTime(); st != 15*time.Millisecond {
		t.Fatalf("ServiceTime = %v, want 15ms", st)
	}
}

// readFrame reads and decodes the next binary frame of r.
func readFrame(r io.Reader) (Envelope, error) {
	var buf []byte
	payload, err := ReadFramePayload(r, &buf)
	if err != nil {
		return Envelope{}, err
	}
	return DecodeFrame(payload)
}

func TestFrameRoundTrip(t *testing.T) {
	env, _ := NewEnvelope(KindHeartbeat, 3, "service.0001", "", t0,
		Heartbeat{ServiceUID: "service.0001", At: t0, QueueDepth: 4, Busy: true})
	frame, err := AppendFrame(nil, &env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindHeartbeat || got.ID != 3 || got.From != "service.0001" {
		t.Fatalf("frame round trip mismatch: %+v", got)
	}
	var hb Heartbeat
	if err := got.Decode(KindHeartbeat, &hb); err != nil {
		t.Fatal(err)
	}
	if hb.QueueDepth != 4 || !hb.Busy {
		t.Fatalf("heartbeat body mismatch: %+v", hb)
	}
}

func TestFrameMultipleSequential(t *testing.T) {
	var stream []byte
	for i := uint64(0); i < 10; i++ {
		env, _ := NewEnvelope(KindControl, i, "mgr", "svc", t0, Control{Command: CtlPing, Target: "svc"})
		var err error
		if stream, err = AppendFrame(stream, &env); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream)
	for i := uint64(0); i < 10; i++ {
		env, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if env.ID != i {
			t.Fatalf("frame %d read out of order as %d", i, env.ID)
		}
	}
	if _, err := readFrame(r); err != io.EOF {
		t.Fatalf("trailing read err = %v, want io.EOF", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	env, _ := NewEnvelope(KindError, 1, "a", "b", t0, ErrorBody{Origin: "x", Msg: "y"})
	frame, err := AppendFrame(nil, &env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(bytes.NewReader(frame[:len(frame)-3])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestFramePropertyRoundTrip(t *testing.T) {
	f := func(id uint64, from, to, prompt string) bool {
		if len(from) > frameHeaderMax || len(to) > frameHeaderMax {
			return true // the one-byte header lengths reject these (TestAppendFrameLimits)
		}
		env, err := NewEnvelope(KindRequest, id, from, to, t0, InferenceRequest{Prompt: prompt})
		if err != nil {
			return false
		}
		frame, err := AppendFrame(nil, &env)
		if err != nil {
			return false
		}
		got, err := readFrame(bytes.NewReader(frame))
		if err != nil {
			return false
		}
		var body InferenceRequest
		if err := got.Decode(KindRequest, &body); err != nil {
			return false
		}
		return got.ID == id && got.From == from && got.To == to && body.Prompt == prompt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
