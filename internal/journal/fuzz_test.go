package journal

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecord exercises the record decoder against arbitrary byte
// streams. As a frame, the input must never panic the decoder, and any
// record it accepts must re-encode to a frame that decodes back to the same
// record. As a payload and as a body, the input goes through the fast path
// and through encoding/json, and the two must agree (checkPayload).
func FuzzDecodeRecord(f *testing.F) {
	// Seed corpus: valid frames for each record kind, plus torn and
	// corrupt variants.
	seed := func(kind Kind, body any) []byte {
		frame, err := oracleFrame(kind, 1, body)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		return frame
	}
	f.Add(seed(KindSession, SessionBody{UID: "session.0001", Seed: 42, Incarnation: 1}))
	f.Add(seed(KindTransition, TransitionBody{Entity: "task", UID: "t1", From: "NEW", To: "TMGR_SCHEDULING"}))
	f.Add(seed(KindBind, BindBody{Entity: "task", UID: "t1", Pilot: "p1"}))
	f.Add(seed(KindEndpoint, EndpointBody{Op: OpPublish, UID: "s1", Generation: 3}))
	full := seed(KindSession, SessionBody{UID: "s"})
	f.Add(full[:len(full)/2])             // torn frame
	f.Add([]byte{})                       // empty
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0}) // bad checksum
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // oversized prefix, short header
	corrupt := append([]byte{}, full...)
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt) // checksum mismatch on real payload

	// Payloads and bodies one step off the writer's shape: the fast path
	// has to decline each, or decode it as encoding/json does.
	for _, s := range []string{
		`{"kind":"transition","seq":1,"body":{"entity":"task","uid":"t1","from":"NEW","to":"TMGR_SCHEDULING","at":"2025-03-04T05:06:07.123456789Z"}}`,
		`{"kind":"bind","seq":18446744073709551615,"body":{"entity":"task","uid":"t1","pilot":"p1"}}`,
		`{"entity":"task","uid":"t1","from":"NEW","to":"TMGR_SCHEDULING","at":"2025-03-04T05:06:07+07:00"}`,
		`{"entity":"task","uid":"t1","pilot":"p1"}`,
		`{ "kind":"bind","seq":1,"body":{"entity":"task","uid":"t1","pilot":"p1"}}`,
		`{"kind":"bind","seq":1,"body": {"entity":"task","uid":"t1","pilot":"p1"} }`,
		`{"kind":"bind","seq":1,"body":{"entity":"task","uid":"t1","pilot":"p1"}} `,
		`{"seq":1,"kind":"bind","body":{"entity":"task","uid":"t1","pilot":"p1"}}`,
		`{"kind":"bind","kind":"task","seq":1,"body":{"entity":"task","uid":"t1","pilot":"p1"}}`,
		`{"kind":"bind","seq":01,"body":{}}`,
		`{"kind":"bind","seq":00,"body":{}}`,
		`{"kind":"bind","seq":-1,"body":{}}`,
		`{"kind":"bind","seq":1e3,"body":{}}`,
		`{"kind":"bind","seq":18446744073709551616,"body":{}}`,
		`{"kind":"bind","seq":1,"body":{},"extra":1}`,
		`{"kind":"bind","seq":1,"body":{"a":1},"x":{}}`,
		`{"kind":"task","seq":1,"body":{"uid":"t1"},"kind":"pilot"}`,
		`{"kind":"bind","seq":1,"body":{"entity":"t\"ask","uid":"é","pilot":"a\\b"}}`,
		`{"kind":"bind","seq":1,"body":{"entity":"task","uid":"t1","pilot":"p1","pilot":"p2"}}`,
		`{"kind":"bind","seq":1,"body":{"entity":"task","uid":"t1","pilot":"p1"`,
		`{"kind":"bind","seq":1,"body":null}`,
		`{"kind":"bind","seq":1,"body":[{}]}`,
		`{"kind":"bind","seq":1,"body":{]}`,
		`{"kind":"transition","seq":1,"body":{"entity":"task","uid":"t1","from":"NEW","to":"X","at":"not a time"}}`,
		`{"entity":"task","uid":"t1","from":"NEW","to":"X","at":"2025-03-04T05:06:07+24:00"}`,
		`{"entity":"task","uid":"t1","from":"NEW","to":"X","at":"10000-03-04T05:06:07Z"}`,
		`{"entity":"task","uid":"t1","from":"NEW","to":"X","at":"2025-03-04T05:06:07,5Z"}`,
		`{"entity":"task","uid":"t1","from":"NEW","to":"X","at":null}`,
		`{"ENTITY":"task","uid":"t1","pilot":"p1"}`,
		`{"entity":"ta<sk","uid":"t&1","pilot":"p>1"}`,
		"{\"entity\":\"ta\x7fsk\",\"uid\":\"\xff\",\"pilot\":\"\t\"}",
	} {
		f.Add([]byte(s))
		f.Add(frameOf([]byte(s)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkPayload(t, data)
		rec, n, err := DecodeRecord(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		checkPayload(t, data[headerSize:n])
		if rec.Body == nil {
			rec.Body = []byte("null") // what a payload without a body re-encodes to
		}
		re, err := encodeRecordJSON(rec)
		if err != nil {
			t.Fatalf("re-encode accepted record: %v", err)
		}
		rec2, n2, err := DecodeRecord(re)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if n2 != len(re) || rec2.Kind != rec.Kind || rec2.Seq != rec.Seq ||
			!bytes.Equal(rec2.Body, rec.Body) {
			t.Fatalf("round trip mismatch: %+v vs %+v", rec, rec2)
		}
	})
}
