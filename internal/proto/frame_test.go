package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

func testEnvelope(t *testing.T) Envelope {
	t.Helper()
	env, err := NewEnvelope(KindRequest, 42, "client.0", "svc.1",
		time.Date(2025, 3, 17, 12, 0, 0, 123456789, time.UTC),
		InferenceRequest{RequestUID: "req.0", ClientUID: "client.0", Model: "noop", Prompt: "hello", MaxTokens: 8})
	if err != nil {
		t.Fatalf("NewEnvelope: %v", err)
	}
	return env
}

func TestBinaryFrameRoundTrip(t *testing.T) {
	env := testEnvelope(t)
	frame, err := AppendFrame(nil, &env)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	var buf []byte
	payload, err := ReadFramePayload(bytes.NewReader(frame), &buf)
	if err != nil {
		t.Fatalf("ReadFramePayload: %v", err)
	}
	got, err := DecodeFrame(payload)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if got.Kind != env.Kind || got.ID != env.ID || got.From != env.From || got.To != env.To {
		t.Fatalf("header mismatch: got %+v want %+v", got, env)
	}
	if !got.Sent.Equal(env.Sent) {
		t.Fatalf("sent mismatch: got %v want %v", got.Sent, env.Sent)
	}
	var req InferenceRequest
	if err := got.Decode(KindRequest, &req); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if req.Prompt != "hello" || req.Model != "noop" {
		t.Fatalf("body mismatch: %+v", req)
	}
}

func TestBinaryFrameZeroTimeAndEmptyBody(t *testing.T) {
	env := Envelope{Kind: KindStateUpdate, ID: 7, From: "a"}
	frame, err := AppendFrame(nil, &env)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	got, err := DecodeFrame(frame[4:])
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if !got.Sent.IsZero() {
		t.Fatalf("zero Sent did not round-trip: %v", got.Sent)
	}
	if got.Body != nil {
		t.Fatalf("empty body came back non-nil: %q", got.Body)
	}
}

// TestBinaryFrameBodyAliasesPayload pins the zero-copy contract: the decoded
// Body is a sub-slice of the payload, not a copy.
func TestBinaryFrameBodyAliasesPayload(t *testing.T) {
	env := testEnvelope(t)
	frame, err := AppendFrame(nil, &env)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	payload := frame[4:]
	got, err := DecodeFrame(payload)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if len(got.Body) == 0 {
		t.Fatal("expected a body")
	}
	if &got.Body[0] != &payload[len(payload)-len(got.Body)] {
		t.Fatal("Body does not alias the payload slice")
	}
}

// TestBinaryFrameSplitReads feeds the frame one byte at a time: ReadFramePayload
// must reassemble across arbitrary Read boundaries.
func TestBinaryFrameSplitReads(t *testing.T) {
	env := testEnvelope(t)
	frame, err := AppendFrame(nil, &env)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	second, err := AppendFrame(nil, &env)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	r := iotest.OneByteReader(bytes.NewReader(append(frame, second...)))
	var buf []byte
	for i := 0; i < 2; i++ {
		payload, err := ReadFramePayload(r, &buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if _, err := DecodeFrame(payload); err != nil {
			t.Fatalf("frame %d decode: %v", i, err)
		}
	}
	if _, err := ReadFramePayload(r, &buf); err != io.EOF {
		t.Fatalf("want clean io.EOF at stream end, got %v", err)
	}
}

func TestBinaryFrameReadErrors(t *testing.T) {
	env := testEnvelope(t)
	frame, err := AppendFrame(nil, &env)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}

	var buf []byte
	// Truncated length prefix.
	if _, err := ReadFramePayload(bytes.NewReader(frame[:2]), &buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated prefix: want ErrUnexpectedEOF, got %v", err)
	}
	// Truncated payload.
	if _, err := ReadFramePayload(bytes.NewReader(frame[:len(frame)-3]), &buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: want ErrUnexpectedEOF, got %v", err)
	}
	// Oversized length prefix.
	var huge [8]byte
	binary.BigEndian.PutUint32(huge[:4], maxFrameSize+1)
	if _, err := ReadFramePayload(bytes.NewReader(huge[:]), &buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized prefix: want ErrFrameTooLarge, got %v", err)
	}
	// Clean close at a frame boundary.
	if _, err := ReadFramePayload(bytes.NewReader(nil), &buf); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
}

func TestDecodeFrameCorruption(t *testing.T) {
	env := testEnvelope(t)
	frame, err := AppendFrame(nil, &env)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	good := frame[4:]

	cases := map[string][]byte{
		"empty":             {},
		"bad version":       append([]byte{99}, good[1:]...),
		"truncated kind":    good[:2],
		"kind len past end": {frameVersion, 200, 'x'},
		"truncated fixed":   good[:len(good)-25],
		"trailing garbage":  append(append([]byte{}, good...), 0xde, 0xad),
	}
	// Body length field larger than the remaining bytes.
	short := append([]byte{}, good...)
	short = short[:len(short)-1]
	cases["body len mismatch"] = short

	for name, payload := range cases {
		if _, err := DecodeFrame(payload); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: want ErrBadFrame, got %v", name, err)
		}
	}
}

func TestAppendFrameLimits(t *testing.T) {
	long := Envelope{Kind: Kind(strings.Repeat("k", 300)), From: "a"}
	if _, err := AppendFrame(nil, &long); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized kind: want ErrBadFrame, got %v", err)
	}
	big := Envelope{Kind: KindRequest, Body: bytes.Repeat([]byte("x"), maxFrameSize)}
	if _, err := AppendFrame(nil, &big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized body: want ErrFrameTooLarge, got %v", err)
	}
}

// FuzzDecodeFrame asserts the decoder never panics and fails only with the
// typed frame error.
func FuzzDecodeFrame(f *testing.F) {
	env, _ := NewEnvelope(KindReply, 9, "svc", "cli", time.Unix(1, 2).UTC(),
		InferenceReply{RequestUID: "r", Text: "ok"})
	frame, err := AppendFrame(nil, &env)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame[4:])
	f.Add([]byte{})
	f.Add([]byte{frameVersion})
	f.Add([]byte{frameVersion, 1, 'x', 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if _, err := DecodeFrame(payload); err != nil && !errors.Is(err, ErrBadFrame) {
			t.Fatalf("non-typed error: %v", err)
		}
	})
}

// FuzzReadFramePayload asserts the stream reader never panics on arbitrary
// byte streams and fails only with typed or io errors.
func FuzzReadFramePayload(f *testing.F) {
	env, _ := NewEnvelope(KindStateUpdate, 1, "s", "", time.Unix(3, 4).UTC(), StateUpdate{EntityUID: "s"})
	frame, err := AppendFrame(nil, &env)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add(frame[:3])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, stream []byte) {
		var buf []byte
		r := bytes.NewReader(stream)
		for {
			payload, err := ReadFramePayload(r, &buf)
			if err != nil {
				ok := err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrFrameTooLarge)
				if !ok {
					t.Fatalf("non-typed error: %v", err)
				}
				return
			}
			// Whatever parses must be re-encodable or typed-fail.
			if _, err := DecodeFrame(payload); err != nil && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("non-typed decode error: %v", err)
			}
		}
	})
}
