package protocol

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"unicode/utf8"

	"dbtouch/internal/storage"
)

// The append body is the one request whose size is data, not intent: a
// thousand rows of plain scalars. Decoding it through reflection into
// [][]any costs a growslice per row and a box per cell, so that one
// value gets a hand-written parser straight into a column-wise
// storage.Batch — typed vectors the live table appends as they are.
// Everything else in the body — and any body the parser does not
// recognize to the letter — is encoding/json's: it stays the definition
// of the wire (FuzzDecodeRequest holds the two to the same Request and the
// same error text).
//
// The fast shape is exactly: a top-level object whose keys are ASCII
// without escapes, exactly one of them spelled "rows" (no other key that
// case-folds to it), its value a non-empty array of equally long,
// non-empty arrays of numbers, escape-free valid-UTF-8 strings and
// booleans. Duplicate keys, "Rows", ragged rows, null or nested cells,
// escapes, 1e400 — all of those keep encoding/json's behaviour by going
// to encoding/json.

var rowsKey = []byte(`"rows"`)

// decodeAppend fills r from an append-shaped body: the rows value parsed
// by parseRows into r.batch (r.Rows stays nil), the rest of the body (rows
// replaced by null, ~60 bytes) by encoding/json. It reports false,
// leaving r in an unspecified state, when the body is outside the fast
// shape or does not decode cleanly; the caller then hands the whole body
// to encoding/json, which is where every error text comes from.
func decodeAppend(data []byte, r *Request) bool {
	if !bytes.Contains(data, rowsKey) {
		return false
	}
	batch, lo, hi, ok := splitRows(data)
	if !ok {
		return false
	}
	rest := make([]byte, 0, lo+len("null")+len(data)-hi)
	rest = append(rest, data[:lo]...)
	rest = append(rest, "null"...)
	rest = append(rest, data[hi:]...)
	if json.Unmarshal(rest, r) != nil {
		return false
	}
	r.batch = batch
	return true
}

// splitRows walks the top-level object, parses the value of its one
// "rows" key and reports that value's extent data[lo:hi]. Other values
// are skipped, not validated: the caller decodes the body around the
// rows with encoding/json, which rejects what this walk let through.
func splitRows(data []byte) (batch *storage.Batch, lo, hi int, ok bool) {
	i := skipSpace(data, 0)
	if i >= len(data) || data[i] != '{' {
		return nil, 0, 0, false
	}
	i++
	found := false
	for {
		i = skipSpace(data, i)
		if i >= len(data) || data[i] != '"' {
			return nil, 0, 0, false
		}
		i++
		keyLo := i
		for i < len(data) && data[i] != '"' {
			if c := data[i]; c < 0x20 || c >= utf8.RuneSelf || c == '\\' {
				return nil, 0, 0, false
			}
			i++
		}
		if i >= len(data) {
			return nil, 0, 0, false
		}
		key := data[keyLo:i]
		i = skipSpace(data, i+1)
		if i >= len(data) || data[i] != ':' {
			return nil, 0, 0, false
		}
		i = skipSpace(data, i+1)
		switch {
		case string(key) == "rows":
			if found {
				return nil, 0, 0, false
			}
			found = true
			var n int
			if batch, n, ok = parseRows(string(data[i:])); !ok {
				return nil, 0, 0, false
			}
			lo, hi = i, i+n
			i = hi
		case len(key) == len("rows") && strings.EqualFold(string(key), "rows"):
			// "Rows" also lands in Request.Rows, under encoding/json's
			// own precedence rules.
			return nil, 0, 0, false
		default:
			if i = skipValue(data, i); i < 0 {
				return nil, 0, 0, false
			}
		}
		i = skipSpace(data, i)
		if i >= len(data) {
			return nil, 0, 0, false
		}
		if data[i] == ',' {
			i++
			continue
		}
		if data[i] != '}' || skipSpace(data, i+1) != len(data) {
			return nil, 0, 0, false
		}
		return batch, lo, hi, found
	}
}

// skipSpace returns the index of the first non-whitespace byte at or
// after i.
func skipSpace[T string | []byte](s T, i int) int {
	for i < len(s) && isSpace(s[i]) {
		i++
	}
	return i
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

// skipValue returns the index just past the JSON value starting at i, or
// -1 at end of input. It tokenizes valid JSON the way encoding/json does
// (strings honour escapes, containers nest) and makes no promise about
// anything else.
func skipValue(data []byte, i int) int {
	if i >= len(data) {
		return -1
	}
	switch data[i] {
	case '"':
		return skipString(data, i)
	case '{', '[':
		depth := 0
		for i < len(data) {
			switch data[i] {
			case '"':
				if i = skipString(data, i); i < 0 {
					return -1
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					return i + 1
				}
			}
			i++
		}
		return -1
	default:
		start := i
		for i < len(data) && data[i] != ',' && data[i] != '}' && data[i] != ']' && !isSpace(data[i]) {
			i++
		}
		if i == start {
			return -1
		}
		return i
	}
}

// skipString returns the index just past the string opening at i.
func skipString(data []byte, i int) int {
	for i++; i < len(data); i++ {
		switch data[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return -1
}

// parseRows parses the rows array opening at s[0] into a column-wise
// batch and reports how many bytes it spans. Cells keep what encoding/json
// would put in an `any` — float64, string, bool — in one typed vector per
// column; strings are substrings of s, which is why a dictionary clones
// what it keeps.
func parseRows(s string) (b *storage.Batch, n int, ok bool) {
	if len(s) == 0 || s[0] != '[' {
		return nil, 0, false
	}
	b = new(storage.Batch)
	i := skipSpace(s, 1)
	for {
		if i >= len(s) || s[i] != '[' {
			return nil, 0, false
		}
		rowLo := i
		i = skipSpace(s, i+1)
		for {
			if i >= len(s) {
				return nil, 0, false
			}
			switch c := s[i]; {
			case c == '"':
				j, ascii := i+1, true
				for j < len(s) && s[j] != '"' {
					if s[j] < 0x20 || s[j] == '\\' {
						return nil, 0, false
					}
					ascii = ascii && s[j] < utf8.RuneSelf
					j++
				}
				if j >= len(s) || !ascii && !utf8.ValidString(s[i+1:j]) {
					return nil, 0, false
				}
				b.AppendString(s[i+1 : j])
				i = j + 1
			case c == '-' || '0' <= c && c <= '9':
				f, w, ok := parseNumber(s[i:])
				if !ok {
					return nil, 0, false
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
				return nil, 0, false
			}
			i = skipSpace(s, i)
			if i >= len(s) {
				return nil, 0, false
			}
			if s[i] == ',' {
				i = skipSpace(s, i+1)
				continue
			}
			if s[i] != ']' {
				return nil, 0, false
			}
			i++
			break
		}
		// A ragged batch is encoding/json's: the batch keeps no cells past
		// the first row's width, and Rows must reproduce every one.
		if !b.EndRow() {
			return nil, 0, false
		}
		if b.Len() == 1 {
			// Size every vector once, from the first row: the batch holds
			// about len(s)/len(row) rows of this width. A wrong guess
			// costs an append regrowth or some slack, never correctness,
			// and the guess is bounded by the body (a cell is two bytes
			// at least).
			b.Grow(len(s) / (i - rowLo + 1))
		}
		i = skipSpace(s, i)
		if i >= len(s) {
			return nil, 0, false
		}
		if s[i] == ',' {
			i = skipSpace(s, i+1)
			continue
		}
		if s[i] != ']' {
			return nil, 0, false
		}
		i++
		break
	}
	return b, i, true
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
