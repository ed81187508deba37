package protocol

import (
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"dbtouch/internal/gesture"
	"dbtouch/internal/storage"
)

// The requests a server answers all day — taps, slides and zooms, idles,
// the gateway's stamped copies of them, thousand-row appends — are read
// by one hand-written walk over the body instead of by reflection: one
// string copy of the body, fields taken as substrings of it, append rows
// parsed straight into a column-wise storage.Batch. Everything else — and
// any body the walk does not recognize to the letter — is encoding/json's,
// which stays the definition of the wire (FuzzDecodeRequest holds the two
// to the same Request and the same error text).
//
// The fast shape is exactly: one top-level object with distinct,
// exact-case, escape-free keys drawn from v, op, reqId, session, object,
// as, table, idle, gesture and rows; gesture an object with distinct keys
// drawn from kind, target, dur, from, to, frac, factor, pauseAt, pauseDur,
// passes, x and y; strings free of escapes and control bytes, and valid
// UTF-8; v, target, passes, idle, dur and pauseDur integer literals in
// range; the other gesture numbers literals parseNumber reads; rows a
// non-empty array of equally long, non-empty arrays of numbers, strings
// and booleans. A create or actions spec, an unknown key, a key that only
// case-folds to a field, a duplicate, null, an escape, 1e400, trailing
// bytes — all of those keep encoding/json's behaviour by going to
// encoding/json whole.

// pinBytes bounds the body a decoded field may share memory with. The
// fields of a longer body — a thousand-row append's table name, a padded
// perform's session — are copied out, so that nothing a request leaves
// behind (a session id, the dedupe cache's ReqID, a gateway's table lock)
// keeps a big body alive.
const pinBytes = 512

// The longest integer literals read by hand into an int and into an
// int64 (a time.Duration): none that long can overflow the field, and
// longer ones are encoding/json's.
const (
	intDigits   = strconv.IntSize / 32 * 9
	int64Digits = 18
)

// readRequest reads body into a Request when it is in the fast shape and
// reports whether it was; any other body is encoding/json's to decode.
// Append rows stay a column-wise batch (Request.Batch), Rows nil.
func readRequest(body string) (r Request, ok bool) {
	w := walk{s: body, big: len(body) > pinBytes}
	i, more := w.open(skipSpace(body, 0))
	for seen := uint16(0); more; {
		key, j := w.key(i)
		var bit uint16
		switch key {
		case "v":
			bit = 1 << 0
			var n int64
			n, i = w.int(j, intDigits)
			r.V = int(n)
		case "op":
			bit = 1 << 1
			r.Op, i = w.str(j)
		case "reqId":
			bit = 1 << 2
			r.ReqID, i = w.str(j)
		case "session":
			bit = 1 << 3
			r.Session, i = w.str(j)
		case "object":
			bit = 1 << 4
			r.Object, i = w.str(j)
		case "as":
			bit = 1 << 5
			r.As, i = w.str(j)
		case "table":
			bit = 1 << 6
			r.Table, i = w.str(j)
		case "idle":
			bit = 1 << 7
			var n int64
			n, i = w.int(j, int64Digits)
			r.Idle = time.Duration(n)
		case "gesture":
			bit = 1 << 8
			r.Gesture = new(gesture.Gesture)
			i = w.gesture(j, r.Gesture)
		case "rows":
			bit = 1 << 9
			r.batch, i = parseRows(body, j)
		default:
			return Request{}, false
		}
		if i < 0 || seen&bit != 0 {
			return Request{}, false
		}
		seen |= bit
		if i, more = w.next(i); i < 0 {
			return Request{}, false
		}
	}
	if i < 0 || skipSpace(body, i) != len(body) {
		return Request{}, false
	}
	return r, true
}

// walk reads the fast shape's tokens out of s. Every reader takes the
// index its token starts at and returns the index just past it, or -1
// when the token is outside the fast shape.
type walk struct {
	s   string
	big bool // len(s) > pinBytes: strings are copied out
}

// open reads an object's opening brace and the space after it. more
// reports whether a member follows; when the object is empty, i is just
// past its closing brace.
func (w walk) open(i int) (j int, more bool) {
	if i >= len(w.s) || w.s[i] != '{' {
		return -1, false
	}
	i = skipSpace(w.s, i+1)
	if i < len(w.s) && w.s[i] == '}' {
		return i + 1, false
	}
	return i, true
}

// next reads the comma or closing brace after a member's value: more
// reports a comma, and j is then the next key's index.
func (w walk) next(i int) (j int, more bool) {
	i = skipSpace(w.s, i)
	switch {
	case i >= len(w.s):
		return -1, false
	case w.s[i] == ',':
		return skipSpace(w.s, i+1), true
	case w.s[i] == '}':
		return i + 1, false
	}
	return -1, false
}

// key reads an escape-free key and its colon, and returns the index of
// the value. A key outside the fast shape reads as "", which no caller
// knows.
func (w walk) key(i int) (key string, j int) {
	if i >= len(w.s) || w.s[i] != '"' {
		return "", -1
	}
	end := strings.IndexByte(w.s[i+1:], '"')
	if end < 0 {
		return "", -1
	}
	key = w.s[i+1 : i+1+end]
	i = skipSpace(w.s, i+2+end)
	if i >= len(w.s) || w.s[i] != ':' {
		return "", -1
	}
	if i = skipSpace(w.s, i+1); i >= len(w.s) {
		return "", -1
	}
	return key, i
}

// str reads a string free of escapes and control bytes that is valid
// UTF-8: the value encoding/json decodes it to, as a substring of the
// body, or as a copy of one in a big body.
func (w walk) str(i int) (string, int) {
	j := closeQuote(w.s, i)
	if j < 0 {
		return "", -1
	}
	v := w.s[i+1 : j]
	if w.big {
		v = strings.Clone(v)
	}
	return v, j + 1
}

// closeQuote returns the index of the closing quote of the string opening
// at s[i], or -1 when s[i] opens none or the string has an escape or a
// control byte, or is not valid UTF-8.
func closeQuote(s string, i int) int {
	if s[i] != '"' {
		return -1
	}
	j, ascii := i+1, true
	for ; j < len(s) && s[j] != '"'; j++ {
		if s[j] < 0x20 || s[j] == '\\' {
			return -1
		}
		ascii = ascii && s[j] < utf8.RuneSelf
	}
	if j >= len(s) || !ascii && !utf8.ValidString(s[i+1:j]) {
		return -1
	}
	return j
}

// int reads an integer literal of at most digits digits, so that it fits
// the field without a range check. A fraction or an exponent ends the
// literal early and fails at the caller's next.
func (w walk) int(i, digits int) (int64, int) {
	j := i
	if w.s[j] == '-' {
		j++
	}
	lo := j
	var n int64
	for ; j < len(w.s) && '0' <= w.s[j] && w.s[j] <= '9'; j++ {
		n = n*10 + int64(w.s[j]-'0')
	}
	if j == lo || j-lo > digits || j-lo > 1 && w.s[lo] == '0' {
		return 0, -1
	}
	if w.s[i] == '-' {
		n = -n
	}
	return n, j
}

// float reads a number literal as encoding/json reads it into a float64.
func (w walk) float(i int) (float64, int) {
	f, n, ok := parseNumber(w.s[i:])
	if !ok {
		return 0, -1
	}
	return f, i + n
}

// gesture reads a gesture object into g.
func (w walk) gesture(i int, g *gesture.Gesture) int {
	i, more := w.open(i)
	for seen := uint16(0); more; {
		key, j := w.key(i)
		var bit uint16
		var n int64
		switch key {
		case "kind":
			bit = 1 << 0
			var k string
			k, i = w.str(j)
			g.Kind = gesture.Kind(k)
		case "target":
			bit = 1 << 1
			n, i = w.int(j, intDigits)
			g.Target = int(n)
		case "dur":
			bit = 1 << 2
			n, i = w.int(j, int64Digits)
			g.Dur = time.Duration(n)
		case "from":
			bit = 1 << 3
			g.From, i = w.float(j)
		case "to":
			bit = 1 << 4
			g.To, i = w.float(j)
		case "frac":
			bit = 1 << 5
			g.Frac, i = w.float(j)
		case "factor":
			bit = 1 << 6
			g.Factor, i = w.float(j)
		case "pauseAt":
			bit = 1 << 7
			g.PauseAt, i = w.float(j)
		case "pauseDur":
			bit = 1 << 8
			n, i = w.int(j, int64Digits)
			g.PauseDur = time.Duration(n)
		case "passes":
			bit = 1 << 9
			n, i = w.int(j, intDigits)
			g.Passes = int(n)
		case "x":
			bit = 1 << 10
			g.X, i = w.float(j)
		case "y":
			bit = 1 << 11
			g.Y, i = w.float(j)
		default:
			return -1
		}
		if i < 0 || seen&bit != 0 {
			return -1
		}
		seen |= bit
		if i, more = w.next(i); i < 0 {
			return -1
		}
	}
	return i
}

// skipSpace returns the index of the first non-whitespace byte at or
// after i.
func skipSpace(s string, i int) int {
	for i < len(s) && isSpace(s[i]) {
		i++
	}
	return i
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

// parseRows parses the rows array opening at s[i] into a column-wise
// batch and returns it with the index just past the array, or -1. Cells
// keep what encoding/json would put in an `any` — float64, string, bool —
// in one typed vector per column; strings are substrings of s, which is
// why a dictionary clones what it keeps.
func parseRows(s string, i int) (*storage.Batch, int) {
	if s[i] != '[' {
		return nil, -1
	}
	b, start := new(storage.Batch), i
	i = skipSpace(s, i+1)
	for {
		if i >= len(s) || s[i] != '[' {
			return nil, -1
		}
		rowLo := i
		i = skipSpace(s, i+1)
		for {
			if i >= len(s) {
				return nil, -1
			}
			switch c := s[i]; {
			case c == '"':
				j := closeQuote(s, i)
				if j < 0 {
					return nil, -1
				}
				b.AppendString(s[i+1 : j])
				i = j + 1
			case c == '-' || '0' <= c && c <= '9':
				f, w, ok := parseNumber(s[i:])
				if !ok {
					return nil, -1
				}
				b.AppendFloat(f)
				i += w
			case strings.HasPrefix(s[i:], "true"):
				b.AppendBool(true)
				i += len("true")
			case strings.HasPrefix(s[i:], "false"):
				b.AppendBool(false)
				i += len("false")
			default:
				return nil, -1
			}
			i = skipSpace(s, i)
			if i >= len(s) {
				return nil, -1
			}
			if s[i] == ',' {
				i = skipSpace(s, i+1)
				continue
			}
			if s[i] != ']' {
				return nil, -1
			}
			i++
			break
		}
		// A ragged batch is encoding/json's: the batch keeps no cells past
		// the first row's width, and Rows must reproduce every one.
		if !b.EndRow() {
			return nil, -1
		}
		if b.Len() == 1 {
			// Size every vector once, from the first row: the batch holds
			// about len(rows)/len(row) rows of this width. A wrong guess
			// costs an append regrowth or some slack, never correctness,
			// and the guess is bounded by the body (a cell is two bytes at
			// least).
			b.Grow((len(s) - start) / (i - rowLo + 1))
		}
		i = skipSpace(s, i)
		if i >= len(s) {
			return nil, -1
		}
		if s[i] == ',' {
			i = skipSpace(s, i+1)
			continue
		}
		if s[i] != ']' {
			return nil, -1
		}
		return b, i + 1
	}
}

// boxRows renders a batch as the Rows encoding/json would have decoded.
// All rows share one flat backing array, each through a three-index
// slice, so an append on one row reallocates instead of writing into the
// next.
func boxRows(b *storage.Batch) [][]any {
	w := b.Width()
	flat := make([]any, b.Len()*w)
	rows := make([][]any, b.Len())
	for r := range rows {
		row := flat[r*w : (r+1)*w : (r+1)*w]
		for c := range row {
			row[c] = valueToAny(b.Cell(r, c))
		}
		rows[r] = row
	}
	return rows
}

// valueToAny renders a storage value as an append cell — the inverse of
// CoerceValue up to JSON number typing.
func valueToAny(v storage.Value) any {
	switch v.Type {
	case storage.Int64:
		return v.I
	case storage.Float64:
		return v.F
	case storage.Bool:
		return v.B
	default:
		return v.S
	}
}

// parseNumber parses the JSON number at the start of s to the float64
// encoding/json yields (strconv.ParseFloat of the literal) and reports
// the literal's length. Out-of-range literals are not ok: encoding/json
// fails those with its own message.
func parseNumber(s string) (f float64, n int, ok bool) {
	i := 0
	if s[0] == '-' {
		i++
	}
	intLo := i
	var u uint64
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			u = u*10 + uint64(s[i]-'0')
		}
	default:
		return 0, 0, false
	}
	// Up to 15 digits an integer is exact in a float64 and in u.
	exact := i-intLo <= 15
	if i < len(s) && s[i] == '.' {
		exact = false
		digits := i + 1
		for i++; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		}
		if i == digits {
			return 0, 0, false
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		exact = false
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		digits := i
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		}
		if i == digits {
			return 0, 0, false
		}
	}
	if exact {
		f = float64(u)
		if s[0] == '-' {
			f = -f
		}
		return f, i, true
	}
	f, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, 0, false
	}
	return f, i, true
}
