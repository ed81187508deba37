package protocol

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"dbtouch/internal/storage"
)

// A perform answers with up to a few hundred ResultFrames, and /stream
// writes one per line: the two shapes the server encodes all day. They
// are rendered with strconv appends, byte for byte what json.Marshal
// produces — same field order, same omitempty rules, same float format —
// and anything whose rendering is not plain goes to json.Marshal itself:
// a string outside printable HTML-safe ASCII is quoted by json.Marshal, a
// Stats answer or a non-finite Agg sends the whole value there.
// FuzzEncodeResponse holds the two encoders to identical bytes. The table
// log's append rows (appendRows) are written with the same pieces, held
// to json.Marshal by FuzzDecodeRequest.

// frameSizeHint presizes an encode buffer: a summary frame is ~170 bytes.
const frameSizeHint = 192

// marshalResponse renders r as json.Marshal(r) would, into a buffer of
// its own. It reports false for the values left to encoding/json whole.
func marshalResponse(r *Response) ([]byte, bool) {
	return appendResponse(nil, r)
}

// appendResponse is marshalResponse appending to b, which it first grows
// by the rendering's usual size. On false the bytes past len(b) are
// garbage and b's own are untouched.
func appendResponse(b []byte, r *Response) ([]byte, bool) {
	if r.Stats != nil {
		return b, false
	}
	b = slices.Grow(b, 128+len(r.Error)+frameSizeHint*len(r.Results))
	b = append(b, `{"v":`...)
	b = strconv.AppendInt(b, int64(r.V), 10)
	b = append(b, `,"ok":`...)
	b = strconv.AppendBool(b, r.OK)
	if r.Error != "" {
		b = appendString(append(b, `,"error":`...), r.Error)
	}
	if r.Overloaded {
		b = append(b, `,"overloaded":true`...)
	}
	b = appendIntField(b, `,"retryAfter":`, int64(r.RetryAfter))
	b = appendIntField(b, `,"objectId":`, int64(r.ObjectID))
	if len(r.Results) > 0 {
		b = append(b, `,"results":[`...)
		for i := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			var ok bool
			if b, ok = appendFrame(b, &r.Results[i]); !ok {
				return b, false
			}
		}
		b = append(b, ']')
	}
	if r.Epoch != 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendUint(b, r.Epoch, 10)
	}
	b = appendIntField(b, `,"rows":`, int64(r.Rows))
	if r.Gone {
		b = append(b, `,"gone":true`...)
	}
	b = appendIntField(b, `,"replayed":`, int64(r.Replayed))
	return append(b, '}'), true
}

// appendFrame renders f as json.Marshal(f) would; false means encode it
// with json.Marshal instead.
func appendFrame(b []byte, f *ResultFrame) ([]byte, bool) {
	b = appendString(append(b, `{"kind":`...), f.Kind)
	b = append(b, `,"objectId":`...)
	b = strconv.AppendInt(b, int64(f.ObjectID), 10)
	b = append(b, `,"tupleId":`...)
	b = strconv.AppendInt(b, int64(f.TupleID), 10)
	b = appendIntField(b, `,"col":`, int64(f.Col))
	if f.Value != "" {
		b = appendString(append(b, `,"value":`...), f.Value)
	}
	if f.Agg != 0 {
		if math.IsInf(f.Agg, 0) || math.IsNaN(f.Agg) {
			return b, false
		}
		b = append(b, `,"agg":`...)
		b = appendFloat(b, f.Agg)
	} else if math.Signbit(f.Agg) {
		// Whether omitempty drops a negative zero has changed between Go
		// releases; let the toolchain's own encoder decide.
		return b, false
	}
	b = appendIntField(b, `,"windowLo":`, int64(f.WindowLo))
	b = appendIntField(b, `,"windowHi":`, int64(f.WindowHi))
	b = appendIntField(b, `,"n":`, f.N)
	if f.GroupKey != "" {
		b = appendString(append(b, `,"group":`...), f.GroupKey)
	}
	b = appendIntField(b, `,"matches":`, int64(f.Matches))
	b = appendIntField(b, `,"level":`, int64(f.Level))
	b = append(b, `,"time":`...)
	b = strconv.AppendInt(b, int64(f.Time), 10)
	b = appendIntField(b, `,"fadeAt":`, int64(f.FadeAt))
	b = appendIntField(b, `,"latency":`, int64(f.Latency))
	return append(b, '}'), true
}

// appendFrameLine appends f as one NDJSON line — what a json.Encoder
// writes for it.
func appendFrameLine(b []byte, f *ResultFrame) ([]byte, error) {
	mark := len(b)
	b, ok := appendFrame(b, f)
	if !ok {
		enc, err := json.Marshal(*f) // a copy, so f does not escape on the fast path
		if err != nil {
			return b[:mark], err
		}
		b = append(b[:mark], enc...)
	}
	return append(b, '\n'), nil
}

// appendIntField appends an omitempty integer field: nothing when v is 0.
func appendIntField(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendRows renders rows x width cells as json.Marshal renders the
// [][]any boxing them (valueToAny): an append's Rows. A non-finite float
// fails as it fails there.
func appendRows(b []byte, rows, width int, cell func(r, c int) storage.Value) ([]byte, error) {
	b = append(b, '[')
	for r := 0; r < rows; r++ {
		if r > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for c := 0; c < width; c++ {
			if c > 0 {
				b = append(b, ',')
			}
			switch v := cell(r, c); v.Type {
			case storage.Int64:
				b = strconv.AppendInt(b, v.I, 10)
			case storage.Float64:
				if math.IsInf(v.F, 0) || math.IsNaN(v.F) {
					_, err := json.Marshal(v.F)
					return nil, err
				}
				b = appendFloat(b, v.F)
			case storage.Bool:
				b = strconv.AppendBool(b, v.B)
			default:
				b = appendString(b, v.S)
			}
		}
		b = append(b, ']')
	}
	return append(b, ']'), nil
}

// appendString quotes s. Printable ASCII that json.Marshal copies through
// unescaped (it escapes <, > and & too) is copied; any other string is
// quoted by json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s) // a string always marshals
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat formats a finite f as encoding/json does: ES6 number to
// string — %f unless the exponent is below -6 or at least 21, and no
// zero padding in a negative exponent.
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if f != 0 && abs < 1<<53 && f == math.Trunc(f) {
		// A count or an integer sum: its digits are the integer's.
		return strconv.AppendInt(b, int64(f), 10)
	}
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		// clean up e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}
