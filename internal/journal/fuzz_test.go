package journal

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/rng"
	"repro/internal/spec"
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
		rec, n, err := decodeOne(data)
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
		rec2, n2, err := decodeOne(re)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if n2 != len(re) || rec2.Kind != rec.Kind || rec2.Seq != rec.Seq ||
			!bytes.Equal(rec2.Body, rec.Body) {
			t.Fatalf("round trip mismatch: %+v vs %+v", rec, rec2)
		}
	})
}

// taskBodySeeds returns task bodies in and around the writer's shape: every
// task body of testdata/parent.wal (one holds a UID encoding/json escapes),
// and json.Marshal's bytes for descriptions that exercise each field.
func taskBodySeeds(f *testing.F) [][]byte {
	var seeds [][]byte
	data, err := os.ReadFile(filepath.Join("testdata", "parent.wal"))
	if err != nil {
		f.Fatal(err)
	}
	for off := 0; off < len(data); {
		rec, n, err := decodeOne(data[off:])
		if err != nil {
			break // the torn tail
		}
		if off += n; rec.Kind == kindTask {
			seeds = append(seeds, bytes.Clone(rec.Body))
		}
	}
	if len(seeds) != 3 {
		f.Fatalf("parent.wal holds %d task bodies, want 3", len(seeds))
	}
	lo := -1.5
	for _, d := range []spec.TaskDescription{
		{UID: "task.000001", Name: "rpbench-task", Cores: 4},
		{UID: "task.0002", Name: "n", Cores: 1, GPUs: 2, MemGB: 0.5, Priority: -3, Pilot: "pilot.0001"},
		{UID: "t", MemGB: 1.5e-7, Priority: math.MinInt, Cores: math.MaxInt},
		{UID: "t", MemGB: 1e21, Duration: rng.ConstDuration(3 * time.Second)},
		{UID: "t", MemGB: 123456.789, Duration: rng.DurationDist{D: rng.Uniform{Lo: 1, Hi: 2.5}}},
		{UID: "t", Duration: wireDist(map[string]any{"kind": "normal", "mu": 1e9, "sigma": 2e8, "min": lo})},
		{UID: "t", Duration: wireDist(map[string]any{"kind": "normal", "mu": 1, "sigma": 2})},
		{UID: "t", InputStaging: []spec.StagingDirective{{Source: "a", Target: "b", Mode: spec.StageCopy, Bytes: 7}}},
		{UID: "t", OutputStaging: []spec.StagingDirective{}, Metadata: map[string]string{"k": "v"}},
		{UID: "t", Metadata: map[string]string{}},
	} {
		raw, err := json.Marshal(TaskBody{UID: d.UID, Desc: d})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, raw)
	}
	for _, s := range []string{
		`{"uid":"t","desc":{"UID":"u","Name":"","Cores":0,"GPUs":0,"MemGB":0,"Duration":{"kind":"weibull","v":1},"Priority":0,"Pilot":"","InputStaging":null,"OutputStaging":null,"Metadata":null}}`,
		`{"uid":"t","desc":{"UID":"t","Name":"","Cores":-0,"GPUs":1e0,"MemGB":-0.0e+0,"Duration":{"kind":"const","v":{"x":[1]},"w":",\"Priority\":"},"Priority":0,"Pilot":"","InputStaging":null,"OutputStaging":null,"Metadata":null}}`,
		`{"uid":"t","desc":{"UID":"t","Name":"","Cores":1,"GPUs":0,"MemGB":1e999,"Duration": null ,"Priority":0,"Pilot":"","InputStaging":null,"OutputStaging":null,"Metadata":null}}`,
		`{"uid":"t","desc":{"UID":"t","Name":"","Cores":1,"GPUs":0,"MemGB":0,"Duration":{"kind":"const"} ,"Priority":9223372036854775808,"Pilot":"","InputStaging":null,"OutputStaging":null,"Metadata":null}}`,
		`{"uid":"t","desc":{"UID":"t","Name":"","Cores":1,"GPUs":0,"MemGB":0,"Duration":{"a":"x","Priority":1,"kind":"const"},"Priority":2,"Pilot":"","InputStaging":null,"OutputStaging":null,"Metadata":null}}`,
		`{"uid":"t","desc":{"UID":"t","Name":"","Cores":1,"GPUs":0,"MemGB":0,"Duration":null,"Priority":0,"Pilot":"","InputStaging":null,"OutputStaging":null,"Metadata":null},"uid":"again"}`,
		`{"uid":"t","desc":null}`, `{"uid":"t"}`, `{}`, `null`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzTaskBodyDecodeMatchesJSON holds the task body's fast path to
// encoding/json, on targets with every field already set: a body it takes
// reads as json.Unmarshal leaves it, a body it declines leaves the target
// untouched (checkTaskBody). It starts from the writer's shape and
// everything one byte away from it.
func FuzzTaskBodyDecodeMatchesJSON(f *testing.F) {
	for n, body := range taskBodySeeds(f) {
		f.Add(body)
		if n >= 7 {
			continue // neighbours of parent.wal's bodies and of four of the writer's: the rest differ in one value
		}
		for i := range body {
			for _, c := range []byte{' ', '"', '0'} {
				if m := bytes.Clone(body); m[i] != c {
					m[i] = c
					f.Add(m)
				}
			}
			f.Add(append(bytes.Clone(body[:i]), body[i+1:]...))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkTaskBody(t, body) })
}

// FuzzTaskBodyEncodeMatchesJSON holds appendBody's task encoder to
// json.Marshal: the same bytes, or it declines and json.Marshal encodes the
// body or reports the error.
func FuzzTaskBodyEncodeMatchesJSON(f *testing.F) {
	f.Add("task.000001", "task.000001", "rpbench-task", 4, 0, 0.0, 0, "", uint8(0), 0.0, 0.0, uint8(0))
	f.Add("task.0002", "other", "n", 1, 2, 0.5, -3, "pilot.0001", uint8(1), 3e9, 0.0, uint8(0))
	f.Add("a\"b<c>&\t\u2028é\xff", "", "\\", math.MinInt, math.MaxInt, 1.5e-7, 1, "p", uint8(2), 1.0, 2.5, uint8(0))
	f.Add("", "", "", 0, 0, 1e21, 0, "", uint8(3), 1e9, 2e8, uint8(0))
	f.Add("", "", "", 0, 0, 9.9e-7, 0, "", uint8(4), 0.5, 0.25, uint8(0))
	f.Add("", "", "", 0, 0, math.Inf(1), 0, "", uint8(0), 0.0, 0.0, uint8(0))
	f.Add("", "", "", 0, 0, math.NaN(), 0, "", uint8(1), math.NaN(), 0.0, uint8(0))
	f.Add("", "", "", 0, 0, math.Copysign(0, -1), 0, "", uint8(1), math.Inf(-1), 0.0, uint8(0))
	for extra := uint8(1); extra < 8; extra++ {
		f.Add("t", "t", "", 1, 0, 0.0, 0, "", uint8(0), 0.0, 0.0, extra)
	}
	f.Fuzz(func(t *testing.T, uid, descUID, name string, cores, gpus int, mem float64, priority int, pilot string, dist uint8, a, b float64, extra uint8) {
		d := spec.TaskDescription{UID: descUID, Name: name, Cores: cores, GPUs: gpus, MemGB: mem, Priority: priority, Pilot: pilot,
			Func: func(context.Context) error { return nil }}
		switch dist % 5 {
		case 1:
			d.Duration = rng.Seconds(meanOnly(a))
		case 2:
			d.Duration.D = rng.Uniform{Lo: a, Hi: b}
		case 3:
			d.Duration = wireDist(map[string]any{"kind": "normal", "mu": a, "sigma": b})
		case 4:
			d.Duration = wireDist(map[string]any{"kind": "normal", "mu": a, "sigma": b, "min": a - b})
		}
		// The fields the encoder declines on, nil, empty and filled.
		if extra&1 != 0 {
			d.InputStaging = []spec.StagingDirective{}
		}
		if extra&2 != 0 {
			d.OutputStaging = []spec.StagingDirective{{Source: name, Target: pilot, Mode: spec.StageLink}}
		}
		if extra&4 != 0 {
			d.Metadata = map[string]string{name: pilot}
		}
		body := TaskBody{UID: uid, Desc: d}
		want, wantErr := json.Marshal(body)
		got, ok := appendBody([]byte("k:"), body)
		if ok && (wantErr != nil || string(got) != "k:"+string(want)) {
			t.Fatalf("%+v:\n got %s\nwant %s (%v)", body, got[2:], want, wantErr)
		}
		if plain := extra%8 == 0 && wantErr == nil; plain && !ok {
			t.Fatalf("%+v: the encoder declined a body without staging or metadata that json.Marshal encodes", body)
		}
		// What the writer wrote, replay's fast path reads back.
		if ok && !scanTask(want, new(TaskBody)) && isPlainASCII(uid+descUID+name+pilot) {
			t.Fatalf("the decoder declined the writer's %s", want)
		}
		if wantErr == nil {
			checkTaskBody(t, want)
		}
	})
}

// wireDist decodes a distribution from its wire form, as replay does. A
// form json.Marshal refuses (a NaN or infinite parameter) leaves it unset.
func wireDist(form map[string]any) rng.DurationDist {
	var dd rng.DurationDist
	if raw, err := json.Marshal(form); err == nil {
		_ = dd.UnmarshalJSON(raw)
	}
	return dd
}

// meanOnly is a distribution known only by its mean, which DurationDist
// writes as a constant at that mean: NaN and infinities included, which its
// encoder then refuses.
type meanOnly float64

func (m meanOnly) Sample(*rng.Source) float64 { return float64(m) }
func (m meanOnly) Mean() float64              { return float64(m) }

// isPlainASCII reports whether encoding/json writes s verbatim: only such
// strings stay on the decoder's fast path.
func isPlainASCII(s string) bool {
	raw, _ := json.Marshal(s)
	return len(raw) == len(s)+2 && utf8.ValidString(s) && len(s) == utf8.RuneCountInString(s)
}
