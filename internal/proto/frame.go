package proto

// Binary framing for the pooled TCP transport.
//
// The frame encodes the fixed envelope header fields directly and pays JSON
// only for the body, exactly once: hand-encoded in place for a request or
// reply held in an exchange (codec.go), the body NewEnvelope encoded or a
// snapshot's JSON for anything else (the seed framed the whole envelope as JSON: two
// json.Marshal calls per write and a full json.Unmarshal per read):
//
//	u32  payload length N (big endian), N ≤ maxFrameSize
//	--- payload, N bytes ---
//	u8   version (frameVersion)
//	u8   kind length   | kind bytes
//	u8   from length   | from bytes
//	u8   to length     | to bytes
//	u64  envelope ID (big endian)
//	i64  sent, unix nanoseconds (big endian; 0 encodes the zero time)
//	u32  body length B | body bytes (JSON), ending exactly at N
//
// Decoding is zero-copy for the body: DecodeFrame returns an envelope whose
// Body aliases the payload slice. The caller owns the backing buffer and
// must keep it alive (and unmodified) for as long as the envelope's Body is
// in use — the pooled transport's buffer-ownership rules are built on this.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// frameVersion is the binary frame format version byte.
const frameVersion = 1

// ErrBadFrame is returned when a binary frame payload is structurally
// invalid: wrong version, a field length pointing past the payload, or
// trailing bytes after the body. Corrupt input surfaces as a wrapped
// ErrBadFrame, never as a panic.
var ErrBadFrame = errors.New("proto: malformed frame")

// frameHeaderMax bounds the string header fields (kind, from, to), which
// the format stores with one-byte lengths.
const frameHeaderMax = 255

// AppendFrame appends env as one length-prefixed binary frame to dst and
// returns the extended slice. A request or reply held in an exchange is
// hand-encoded straight into the frame, with no intermediate slice and
// nothing cached on env; any other body is the one NewEnvelope encoded, or a
// snapshot's JSON, cached on env. The header is encoded directly either way, so a write
// costs a single JSON pass. Frames above maxFrameSize are rejected with
// ErrFrameTooLarge and reach no wire: on any error dst comes back at its
// old length.
func AppendFrame(dst []byte, env *Envelope) ([]byte, error) {
	if len(env.Kind) > frameHeaderMax || len(env.From) > frameHeaderMax || len(env.To) > frameHeaderMax {
		return dst, fmt.Errorf("%w: header field over %d bytes", ErrBadFrame, frameHeaderMax)
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, frameVersion) // payload length: patched below
	dst = append(dst, byte(len(env.Kind)))
	dst = append(dst, env.Kind...)
	dst = append(dst, byte(len(env.From)))
	dst = append(dst, env.From...)
	dst = append(dst, byte(len(env.To)))
	dst = append(dst, env.To...)
	dst = binary.BigEndian.AppendUint64(dst, env.ID)
	var sent int64
	if !env.Sent.IsZero() {
		sent = env.Sent.UnixNano()
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(sent))
	dst = append(dst, 0, 0, 0, 0) // body length: patched below
	bodyAt := len(dst)

	direct := false
	if env.Body == nil {
		if out, ok := appendTyped(dst, env); ok {
			dst, direct = out, true
		}
	}
	if !direct {
		body, err := env.wireBody()
		if err != nil {
			return dst[:start], err
		}
		dst = append(dst, body...)
	}
	payload := len(dst) - start - 4
	if payload > maxFrameSize {
		return dst[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(payload))
	binary.BigEndian.PutUint32(dst[bodyAt-4:], uint32(len(dst)-bodyAt))
	return dst, nil
}

// internMax bounds an Interner's table; a connection whose peers mint
// unbounded fresh addresses resets the table instead of growing forever.
const internMax = 1024

// Interner deduplicates the small header strings of decoded frames (kind,
// from, to). On a long-lived connection those fields cycle through a
// handful of values, so interning turns three allocations per decode into
// three map hits. An Interner is single-goroutine state — give each
// connection read loop its own; a nil *Interner is valid and falls back to
// plain allocation.
type Interner struct {
	m map[string]string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{m: make(map[string]string, 16)}
}

// intern returns b as a string, reusing a previous allocation when the
// same bytes were seen before. (The map index with a string(b) key does
// not allocate on the hit path.)
func (in *Interner) intern(b []byte) string {
	if in == nil {
		return string(b)
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	if len(in.m) >= internMax {
		clear(in.m)
	}
	s := string(b)
	in.m[s] = s
	return s
}

// DecodeFrame parses one binary frame payload (the bytes after the length
// prefix) into an envelope. The returned envelope's Body aliases payload —
// no copy is made — so the caller must not recycle or overwrite payload's
// backing buffer while the Body is still referenced. Malformed input
// returns a wrapped ErrBadFrame; no input can panic the decoder.
func DecodeFrame(payload []byte) (Envelope, error) {
	return DecodeFrameInterned(payload, nil)
}

// DecodeFrameInterned is DecodeFrame with the header strings resolved
// through in (see Interner); the transport read loops use it so steady
// traffic decodes without per-frame string allocations.
func DecodeFrameInterned(payload []byte, in *Interner) (Envelope, error) {
	var env Envelope
	p := payload
	if len(p) < 1 {
		return env, fmt.Errorf("%w: empty payload", ErrBadFrame)
	}
	if p[0] != frameVersion {
		return env, fmt.Errorf("%w: version %d (want %d)", ErrBadFrame, p[0], frameVersion)
	}
	p = p[1:]
	str := func(field string) (string, error) {
		if len(p) < 1 {
			return "", fmt.Errorf("%w: truncated %s length", ErrBadFrame, field)
		}
		n := int(p[0])
		p = p[1:]
		if len(p) < n {
			return "", fmt.Errorf("%w: truncated %s", ErrBadFrame, field)
		}
		s := in.intern(p[:n])
		p = p[n:]
		return s, nil
	}
	kind, err := str("kind")
	if err != nil {
		return env, err
	}
	from, err := str("from")
	if err != nil {
		return env, err
	}
	to, err := str("to")
	if err != nil {
		return env, err
	}
	if len(p) < 8+8+4 {
		return env, fmt.Errorf("%w: truncated fixed header", ErrBadFrame)
	}
	env.Kind = Kind(kind)
	env.From = from
	env.To = to
	env.ID = binary.BigEndian.Uint64(p[:8])
	if sent := int64(binary.BigEndian.Uint64(p[8:16])); sent != 0 {
		env.Sent = time.Unix(0, sent).UTC()
	}
	bodyLen := int(binary.BigEndian.Uint32(p[16:20]))
	p = p[20:]
	if bodyLen != len(p) {
		return env, fmt.Errorf("%w: body length %d, %d bytes remain", ErrBadFrame, bodyLen, len(p))
	}
	if bodyLen > 0 {
		env.Body = p
	}
	return env, nil
}

// ReadFramePayload reads one length-prefixed binary frame from r into *buf
// (growing it when the frame is larger than its capacity) and returns the
// payload as a sub-slice of the buffer. The caller owns the buffer and its
// recycling; the returned slice is valid until the buffer's next use.
//
// A clean close at a frame boundary returns io.EOF untouched; a stream
// ending mid-frame returns a wrapped io.ErrUnexpectedEOF; a length prefix
// above maxFrameSize returns ErrFrameTooLarge without consuming the
// payload.
func ReadFramePayload(r io.Reader, buf *[]byte) ([]byte, error) {
	if cap(*buf) < 4 {
		*buf = make([]byte, 0, 512)
	}
	hdr := (*buf)[:4] // the length prefix goes where the payload will: nothing escapes
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean close between frames
		}
		return nil, fmt.Errorf("proto: read frame header: %w", err)
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > maxFrameSize {
		return nil, ErrFrameTooLarge
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	p := (*buf)[:n]
	if _, err := io.ReadFull(r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("proto: read frame payload: %w", err)
	}
	return p, nil
}
