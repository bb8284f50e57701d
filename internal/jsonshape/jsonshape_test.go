package jsonshape

import (
	"encoding/json"
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
