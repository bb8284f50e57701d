// Package jsonshape holds the primitives of the repository's hand-written
// JSON codecs (proto's request and reply bodies, journal's records): an
// appender that emits exactly the bytes encoding/json emits for a string or
// a time, and a cursor that reads exactly that byte shape back. The cursor
// never guesses: any deviation marks it bad, and its caller hands the whole
// input to encoding/json instead.
package jsonshape

import (
	"bytes"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// plain marks the bytes encoding/json writes and reads inside a string
// verbatim: ASCII from the space up, less the quote, the backslash and the
// three bytes its HTML escaping rewrites.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hex = "0123456789abcdef"

// AppendString appends s as encoding/json encodes a string: HTML escaping
// on, U+2028 and U+2029 escaped, each byte of invalid UTF-8 replaced by
// U+FFFD.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0 // s[start:i] is read and not yet appended
	for i := 0; i < len(s); {
		c := s[i]
		if plain[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default: // the other control bytes, and < > &
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	return append(append(b, s[start:]...), '"')
}

// AppendTime appends t as Time.MarshalJSON encodes it. ok is false, with b
// left in an unspecified state, for a time MarshalJSON refuses: a year
// outside 0 to 9999 or a zone hour beyond 23.
func AppendTime(b []byte, t time.Time) (_ []byte, ok bool) {
	_, off := t.Zone()
	if y := t.Year(); y < 0 || y > 9999 || off <= -24*3600 || off >= 24*3600 {
		return b, false
	}
	b = t.AppendFormat(append(b, '"'), time.RFC3339Nano)
	return append(b, '"'), true
}

// AppendFloat appends f as encoding/json encodes a float64: the shortest
// decimal that reads back as f, with an exponent below 1e-6 and from 1e21 up.
// ok is false, with b left in an unspecified state, for an infinity or a NaN,
// which json.Marshal refuses.
func AppendFloat(b []byte, f float64) (_ []byte, ok bool) {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-2] == '0' { // e-09 is written e-9
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, !math.IsInf(f, 0) && !math.IsNaN(f)
}

// Cursor reads P front to back in the exact byte shape a hand-written
// encoder emits. The first deviation makes it bad for good: what it returns
// from then on means nothing, and OK and End report false.
type Cursor struct {
	P   []byte
	i   int
	bad bool
}

// Span is a byte range of a cursor's input.
type Span struct{ Lo, Hi int }

// Of returns the range of p, the cursor's input.
func (v Span) Of(p []byte) []byte { return p[v.Lo:v.Hi] }

// OK reports whether everything read so far had the expected shape.
func (c *Cursor) OK() bool { return !c.bad }

// End reports whether the input had the expected shape to its last byte.
func (c *Cursor) End() bool { return !c.bad && c.i == len(c.P) }

// Pos returns the offset of the next unread byte.
func (c *Cursor) Pos() int { return c.i }

// Fail marks the cursor bad: the caller found a deviation of its own.
func (c *Cursor) Fail() { c.bad = true }

// Has consumes s if the input continues with it.
func (c *Cursor) Has(s string) bool {
	if c.bad || len(c.P)-c.i < len(s) || string(c.P[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

// Lit consumes s, which the input must continue with.
func (c *Cursor) Lit(s string) {
	if !c.Has(s) {
		c.bad = true
	}
}

// Quoted consumes a string literal and returns the span between its quotes.
// isPlain is false if that span holds an escape or a byte encoding/json does
// not copy verbatim; the literal is then encoding/json's to decode.
func (c *Cursor) Quoted() (v Span, isPlain bool) {
	p, lo := c.P, c.i+1
	if c.bad || c.i >= len(p) || p[c.i] != '"' {
		c.bad = true
		return Span{}, false
	}
	isPlain = true
	for j := lo; j < len(p); j++ {
		switch b := p[j]; {
		case plain[b]:
		case b == '"':
			c.i = j + 1
			return Span{lo, j}, isPlain
		case b == '\\':
			j++ // whatever is escaped, it does not end the string
			fallthrough
		default:
			isPlain = false
		}
	}
	c.bad = true
	return Span{}, false
}

// Str consumes a string literal of plain bytes only.
func (c *Cursor) Str() Span {
	v, isPlain := c.Quoted()
	if !isPlain {
		c.bad = true
	}
	return v
}

// Uint consumes an unsigned integer as strconv.AppendUint writes one: no
// sign, no leading zero, no fraction or exponent, at most 64 bits.
func (c *Cursor) Uint() uint64 {
	start := c.i
	c.digits()
	n, err := strconv.ParseUint(string(c.P[start:c.i]), 10, 64)
	if err != nil || (c.i-start > 1 && c.P[start] == '0') {
		c.bad = true
	}
	return n
}

// Int consumes an integer as strconv.AppendInt writes one, if an int holds it.
func (c *Cursor) Int() int {
	start := c.i
	c.Has(`-`)
	c.Uint()
	n, err := strconv.ParseInt(string(c.P[start:c.i]), 10, 0)
	if err != nil {
		c.bad = true
	}
	return int(n)
}

// digits consumes one decimal digit or more.
func (c *Cursor) digits() {
	start := c.i
	for c.i < len(c.P) && '0' <= c.P[c.i] && c.P[c.i] <= '9' {
		c.i++
	}
	if c.i == start {
		c.bad = true
	}
}

// Float consumes a number of JSON's grammar, whatever its form, and returns
// what strconv.ParseFloat makes of it, as encoding/json does for a float64;
// a number ParseFloat refuses (1e999) is encoding/json's to report.
func (c *Cursor) Float() float64 {
	start := c.i
	c.Has(`-`)
	if !c.Has(`0`) {
		c.digits()
	}
	if c.Has(`.`) {
		c.digits()
	}
	if c.Has(`e`) || c.Has(`E`) {
		_ = c.Has(`+`) || c.Has(`-`)
		c.digits()
	}
	f, err := strconv.ParseFloat(string(c.P[start:c.i]), 64)
	if err != nil {
		c.bad = true
	}
	return f
}

// Time consumes a timestamp: the literal up to the next quote, through the
// decoder encoding/json would call. What that decoder takes holds no escape
// and no quote, so the literal ends where encoding/json ends it.
func (c *Cursor) Time() (t time.Time) {
	n := bytes.IndexByte(c.P[min(c.i+1, len(c.P)):], '"') // from the opening quote to the closing one
	if end := c.i + n + 2; !c.bad && n >= 0 && t.UnmarshalJSON(c.P[c.i:end]) == nil {
		c.i = end
		return t
	}
	c.bad = true
	return time.Time{}
}

// Until consumes the input up to the next s and returns the span it passed
// over, which is the caller's to make sense of.
func (c *Cursor) Until(s string) Span {
	n := bytes.Index(c.P[c.i:], []byte(s))
	if c.bad || n < 0 {
		c.bad = true
		return Span{}
	}
	c.i += n
	return Span{c.i - n, c.i}
}
