package jsonshape

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

// oddStrings are the cases encoding/json's string encoder treats specially;
// the differential fuzzers of proto and journal run AppendString over
// arbitrary ones.
var oddStrings = []string{
	"", "plain ascii ~\x7f", `quote " backslash \ slash /`, "<html>&amp;", "\x00\x01\x1f\b\f\n\r\t",
	"é日本😀", "\u2027\u2028\u2029\u202a", "\xff", "a\xc3", "\xed\xa0\x80", "\xe2\x80", "ok\xf0\x9f\x98",
}

func TestAppendStringMatchesJSON(t *testing.T) {
	check := func(s string) bool {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendString([]byte("k:"), s)
		if string(got) != "k:"+string(want) {
			t.Errorf("%q:\n got %s\nwant %s", s, got[2:], want)
			return false
		}
		// Read back: the span is the literal less its quotes, and plain
		// exactly when s is its own encoding byte for byte.
		allPlain := true
		for i := 0; i < len(s); i++ {
			allPlain = allPlain && plain[s[i]]
		}
		c := Cursor{P: want}
		v, isPlain := c.Quoted()
		if !c.End() || v != (Span{1, len(want) - 1}) || isPlain != allPlain {
			t.Errorf("%q: Quoted read %s as span %v, plain %v, end %v", s, want, v, isPlain, c.End())
			return false
		}
		return true
	}
	for _, s := range oddStrings {
		check(s)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendTimeMatchesJSON(t *testing.T) {
	utc := time.Date(2025, 3, 4, 5, 6, 7, 0, time.UTC)
	for _, at := range []time.Time{
		{}, utc, utc.Add(123456789), utc.In(time.FixedZone("", 23*3600+59*60)), utc.In(time.FixedZone("", -23*3600-59*60)),
		utc.In(time.FixedZone("", 24*3600)), utc.In(time.FixedZone("", -24*3600)), utc.In(time.FixedZone("", 30)),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(-1, 12, 31, 0, 0, 0, 0, time.UTC), time.Now(),
	} {
		want, err := json.Marshal(at)
		got, ok := AppendTime(nil, at)
		if ok != (err == nil) || (ok && string(got) != string(want)) {
			t.Errorf("%v: AppendTime %s (ok %v), json.Marshal %s (%v)", at, got, ok, want, err)
		}
	}
}

func TestCursorUint(t *testing.T) {
	for in, want := range map[string]struct {
		n  uint64
		ok bool
	}{
		"0": {0, true}, "7": {7, true}, "18446744073709551615": {18446744073709551615, true},
		"18446744073709551616": {0, false}, "": {0, false}, "00": {0, false}, "01": {0, false}, "-1": {0, false}, "x": {0, false},
	} {
		c := Cursor{P: []byte(in + ",")}
		n := c.Uint()
		c.Lit(",")
		if c.End() != want.ok || (want.ok && n != want.n) {
			t.Errorf("Uint(%q) = %d, ok %v; want %d, ok %v", in, n, c.End(), want.n, want.ok)
		}
	}
}

// FuzzNumberMatchesStrconv holds the number primitives to encoding/json and
// strconv. Read: Float takes a prefix of the input that is exactly one JSON
// number and returns what encoding/json stores in a float64 for it, Int
// likewise for an int, and each fails where encoding/json refuses. Written:
// AppendFloat emits json.Marshal's bytes, and Float reads them back.
func FuzzNumberMatchesStrconv(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "7", "-7", "1.5", "-1.5e-7", "1e21", "1E+2", "1e-09", "0.000001", "123456789012345678901", "1e999", "-1e-999",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809", "18446744073709551615",
		"", "-", "+1", "01", "00", "-01", "1.", ".5", "1.e1", "1e", "1e+", "0x10", "1_0", "Inf", "NaN", "nan", "1,2", "1}", "0.0", "0e0", "5e-324", "1.7976931348623157e308",
	} {
		f.Add(s, 0.0)
	}
	for _, v := range []float64{0, 1, -1, 0.1, 1e-6, 9.9e-7, 1e-7, 1e20, 1e21, 1.5e300, 5e-324, 100, 1e-10, 123456789.125, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)} {
		f.Add("0", v)
	}
	f.Fuzz(func(t *testing.T, s string, v float64) {
		// What a cursor takes from the front of s is a number to encoding/json
		// too, and the same one.
		for _, read := range []func(c *Cursor) any{
			func(c *Cursor) any { return c.Float() },
			func(c *Cursor) any { return c.Int() },
		} {
			c := Cursor{P: []byte(s)}
			got := read(&c)
			if !c.OK() {
				continue // declined: encoding/json's
			}
			num := s[:c.Pos()]
			var want any
			var err error
			if _, isInt := got.(int); isInt {
				var n int
				err, want = json.Unmarshal([]byte(num), &n), n
			} else {
				var x float64
				err, want = json.Unmarshal([]byte(num), &x), x
			}
			if err != nil || got != want {
				t.Fatalf("%q: cursor took %q as %v, encoding/json %v (%v)", s, num, got, want, err)
			}
		}
		// An input that is a number, the cursor takes whole (it does not stop
		// early) unless strconv refuses the value.
		if n := json.Number(s); json.Valid([]byte(s)) && s != "" && (s[0] == '-' || '0' <= s[0] && s[0] <= '9') {
			c := Cursor{P: []byte(s)}
			got := c.Float()
			if want, err := n.Float64(); c.End() != (err == nil) || (err == nil && got != want) {
				t.Fatalf("Float(%q) = %v (end %v), strconv %v (%v)", s, got, c.End(), want, err)
			}
			c = Cursor{P: []byte(s)}
			gotInt := c.Int()
			if want, err := strconv.ParseInt(s, 10, 0); c.End() != (err == nil) || (err == nil && gotInt != int(want)) {
				t.Fatalf("Int(%q) = %v (end %v), strconv %v (%v)", s, gotInt, c.End(), want, err)
			}
		}
		want, err := json.Marshal(v)
		got, ok := AppendFloat([]byte("k:"), v)
		if ok != (err == nil) || (ok && string(got) != "k:"+string(want)) {
			t.Fatalf("AppendFloat(%v) = %s (ok %v), json.Marshal %s (%v)", v, got, ok, want, err)
		}
		if c := (Cursor{P: want}); ok && (c.Float() != v || !c.End()) {
			t.Fatalf("Float does not read %s back as %v", want, v)
		}
	})
}

// FuzzUTCStampMatchesTime holds Time's UTC fast path to Time.UnmarshalJSON:
// a literal utcStamp takes, that decoder takes too, to an Equal time in the
// same location, and Time as a whole takes only what encoding/json takes, to
// the same instant in the same zone. Written: every UTC stamp AppendTime
// emits takes the fast path.
func FuzzUTCStampMatchesTime(f *testing.F) {
	for _, s := range []string{
		`"2024-02-29T00:00:00Z"`, `"2023-02-29T00:00:00Z"`, `"1900-02-29T00:00:00Z"`, `"2000-02-29T00:00:00Z"`,
		`"2025-03-04T24:00:00Z"`, `"2025-03-04T05:60:00Z"`, `"2025-03-04T05:06:07.1234567891Z"`, `"2025-03-04T05:06:07.123456789Z"`,
		`"2025-03-04t05:06:07Z"`, `"2025-03-04T05:06:07z"`, `"2025-03-04T05:06:07+07:00"`, `"2025-03-04T05:06:07Z"`,
		`"2025-03-04T05:06:07.Z"`, `"2025-04-31T00:00:00Z"`, `"0000-01-01T00:00:00Z"`, `"9999-12-31T23:59:59.5Z"`,
		`"10A0-01-01T00:00:00Z"`,
	} {
		f.Add(s, int64(0), int64(0))
	}
	f.Add("", int64(1741064767), int64(123456789))
	f.Add("", int64(-62135596800), int64(1))
	f.Fuzz(func(t *testing.T, s string, sec, nsec int64) {
		if got, n := utcStamp([]byte(s)); n > 0 {
			var want time.Time
			if err := want.UnmarshalJSON([]byte(s[:n])); err != nil || !got.Equal(want) || got.Location() != want.Location() {
				t.Fatalf("utcStamp took %s as %v, Time.UnmarshalJSON %v (%v)", s[:n], got, want, err)
			}
		}
		c := Cursor{P: []byte(s)}
		if got := c.Time(); c.OK() {
			var want time.Time
			if err := json.Unmarshal([]byte(s[:c.Pos()]), &want); err != nil || !got.Equal(want) || got.String() != want.String() {
				t.Fatalf("Time took %s as %v, encoding/json %v (%v)", s[:c.Pos()], got, want, err)
			}
		}
		at := time.Unix(sec, nsec).UTC()
		if b, ok := AppendTime(nil, at); ok {
			if got, n := utcStamp(b); n != len(b) || !got.Equal(at) || got.Location() != time.UTC {
				t.Fatalf("utcStamp read %s as %v (%d bytes), want %v", b, got, n, at)
			}
		}
	})
}

func TestCursorTimeAndUntil(t *testing.T) {
	taken := 0
	for _, in := range []string{
		`"2025-03-04T05:06:07.123456789Z"`, `"2025-03-04T05:06:07+07:00"`, `"0000-01-01T00:00:00Z"`, `"2025-03-04T05:06:07Z"`,
		`"2025-03-04T05:06:07+24:00"`, `"10000-03-04T05:06:07Z"`, `"2025-03-04T05:06:07,5Z"`, `"2025-03-04 05:06:07Z"`,
		`"2025-03-04T05:06:07Z\""`, `"2025-03-04T05:06:0\u0037Z"`, `"2025-03-04T05:06:07Z`, `2025-03-04T05:06:07Z"`, `null`, `"`, ``, `""`,
	} {
		// encoding/json gives the verdict and the value, on the literal alone.
		var want time.Time
		err := json.Unmarshal([]byte(in), &want)
		c := Cursor{P: []byte(in + "}")}
		got := c.Time()
		c.Lit("}")
		if ok := err == nil && in != "null"; c.End() != ok || (ok && (!got.Equal(want) || got.String() != want.String())) {
			t.Errorf("Time(%s) = %v, end %v; encoding/json %v (%v)", in, got, c.End(), want, err)
		}
		if c.End() {
			taken++
		}
	}
	if taken < 4 {
		t.Errorf("Time took %d of the literals, want the four plain ones at least", taken)
	}
	c := Cursor{P: []byte(`{"a":1},"next":2`)}
	if v := c.Until(`,"next":`); !c.OK() || v != (Span{0, 7}) || !c.Has(`,"next":`) {
		t.Errorf("Until stopped at %v (ok %v)", v, c.OK())
	}
	if c.Until(`,"next":`); c.OK() {
		t.Error("Until found what is not there")
	}
}
