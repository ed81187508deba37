// Package protocol defines the versioned wire encoding of the gesture
// API — the paper's §4 remote-processing deployment made concrete: a
// thin touch device (or any client) describes intent as serializable
// gesture values and session operations, a server holding the full data
// executes them, and result frames stream back.
//
// The package owns only the wire forms and their (de)serialization:
// Request/Response envelopes, gesture payloads (reusing
// gesture.Gesture, which is wire-ready by design), object and action
// specs, and ResultFrame, the one-way rendering of core.Result for
// clients. Routing decoded requests into live sessions is the session
// layer's job (session.Manager.HandleRequest); shipping bytes is the
// HTTP handler/client pair in this package. Encoding is JSON with an
// explicit version field; durations are int64 nanoseconds, so a request
// round-trips losslessly — replaying a decoded gesture script is
// byte-identical to driving the API directly (asserted by
// TestProtocolRoundTrip).
package protocol

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/gesture"
	"dbtouch/internal/operator"
	"dbtouch/internal/storage"
)

// Version is the current protocol version. Decoders accept any version
// in [1, Version]; newer versions are rejected, never misread.
//
// Version history:
//
//	v1: JSON requests/responses, NDJSON result streams.
//	v2: adds the binary columnar stream encoding (binary.go), negotiated
//	    per connection via the Accept header on GET /stream. Requests
//	    and /rpc responses are unchanged; servers answer each request in
//	    the version it spoke, so a v1 client sees byte-identical
//	    envelopes and NDJSON remains the fallback and the record/replay
//	    ground truth.
const Version = 2

// Request operations.
const (
	// OpOpen creates the named session.
	OpOpen = "open"
	// OpEvict removes the named session and everything it owns.
	OpEvict = "evict"
	// OpCreate places a data object on the session's screen and binds it
	// to the client-chosen name in Request.Object.
	OpCreate = "create"
	// OpConfigure updates the touch actions of the object named in
	// Request.Object (mode, aggregate, summary window, WHERE conjuncts).
	OpConfigure = "configure"
	// OpPerform executes Request.Gesture against the object named in
	// Request.Object and returns the produced result frames.
	OpPerform = "perform"
	// OpIdle advances the session's virtual time with no touch activity.
	OpIdle = "idle"
	// OpPin promotes the hottest revisited region of the object named in
	// Request.Object as a new object bound to Request.As.
	OpPin = "pin"
	// OpStats snapshots the manager (live sessions, evictions, durability).
	OpStats = "stats"
	// OpAppend appends Request.Rows to the live table named in
	// Request.Table — the ingestion entry point. Appends are session-less:
	// they publish a new snapshot epoch that every session picks up at its
	// next batch start. Rate-limited appends come back Overloaded.
	OpAppend = "append"
	// OpResume re-materializes the session named in Request.Session from
	// its persisted request log (servers running with session durability
	// tee every executed request into one): the server replays checkpoint
	// plus tail through its normal request path, landing bit-identical to
	// a session that never died, and answers with Response.Replayed. A
	// resume of a session that is already live succeeds with Replayed 0.
	// Ops are extensible within a protocol version — an old server answers
	// OpResume with a clean "unknown op" failure — so this needs no
	// version bump.
	OpResume = "resume"
)

// MutatesSession reports whether op changes the state of the session it
// names: the ops a durable server logs and replays on resume, and the
// ones a ReqID makes exactly-once (a gateway stamps one on each). OpEvict
// is session-scoped too, but removes the session instead.
func MutatesSession(op string) bool {
	switch op {
	case OpOpen, OpCreate, OpConfigure, OpPerform, OpIdle, OpPin:
		return true
	}
	return false
}

// OpensSession reports whether op puts its session on the server that
// executes it (open, resume). A draining server refuses these; every
// other session-scoped op needs the session to be there already.
func OpensSession(op string) bool {
	return op == OpOpen || op == OpResume
}

// Request is one decoded client operation. Field use by op:
//
//	open/evict   Session
//	create       Session, Object (name to bind), Create
//	configure    Session, Object, Actions
//	perform      Session, Object, Gesture (Target stamped server-side)
//	idle         Session, Idle
//	pin          Session, Object, As, Create (placement rect only)
//	stats        —
//	append       Table, Rows
//	resume       Session
type Request struct {
	V  int    `json:"v"`
	Op string `json:"op"`
	// ReqID, when set, makes a session-scoped mutating request
	// exactly-once: the session caches its most recent (ReqID, response)
	// pair, and a retry carrying the same ReqID is answered from the
	// cache instead of re-executing. The cache survives crashes — resume
	// replay repopulates it — which is what lets a proxy safely retry a
	// perform whose response was lost in flight (the request may or may
	// not have executed; with a ReqID both cases converge on one
	// execution and one byte-identical response). Clients driving the
	// server directly may leave it empty; the gateway stamps one per
	// forwarded mutating request. Ids only need to differ between
	// consecutive requests of one session.
	ReqID string `json:"reqId,omitempty"`
	// Session names the exploration session the operation addresses.
	Session string `json:"session,omitempty"`
	// Object is the client-chosen object name: the one being created
	// (OpCreate) or the target (OpConfigure/OpPerform/OpPin). Clients
	// address objects by name because kernel ids are per-session state.
	Object string `json:"object,omitempty"`
	// As names the promoted object of an OpPin.
	As      string           `json:"as,omitempty"`
	Gesture *gesture.Gesture `json:"gesture,omitempty"`
	Idle    time.Duration    `json:"idle,omitempty"`
	Create  *CreateSpec      `json:"create,omitempty"`
	Actions *ActionsSpec     `json:"actions,omitempty"`
	// Table names the live table an OpAppend targets.
	Table string `json:"table,omitempty"`
	// Rows carries OpAppend's values, one inner slice per row in the
	// table's column order; cells coerce like filter operands
	// (CoerceValue).
	Rows [][]any `json:"rows,omitempty"`

	// batch holds the rows column-wise, in place of Rows, on a request
	// the /rpc handler decoded (see Batch).
	batch *storage.Batch
	// body is the /rpc body the handler decoded the request from (see
	// Body).
	body string
}

// Body returns the /rpc body the request was decoded from, byte for byte
// as it arrived — padding, field order, a gateway's spliced reqId and
// all — or "" for a request built in process. The body decodes
// (DecodeRequest) to the request the handler executed, so a durable
// session logs it as it came instead of encoding the request again.
func (r Request) Body() string { return r.body }

// Batch returns the append's rows column-wise: the batch the /rpc handler
// parsed them into, or one built from Rows — each cell coerced by
// CoerceValue — for a request made in process.
func (r Request) Batch() *storage.Batch {
	if r.batch != nil {
		return r.batch
	}
	b := new(storage.Batch)
	for _, row := range r.Rows {
		for _, cell := range row {
			b.AppendValue(CoerceValue(cell))
		}
		b.EndRow()
	}
	return b
}

// CreateSpec places an object: one column of a table (Column set) or the
// whole table (Column empty) at frame (X, Y, W, H) centimeters. OpPin
// uses only the frame.
type CreateSpec struct {
	Table  string  `json:"table,omitempty"`
	Column string  `json:"column,omitempty"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	W      float64 `json:"w"`
	H      float64 `json:"h"`
}

// ActionsSpec is a delta against an object's current touch
// configuration: zero-valued fields keep the current setting, Where
// entries append conjuncts. This mirrors the facade builders (Scan
// changes only the mode, Where only appends), so a recorded script
// replays to the same configuration.
type ActionsSpec struct {
	// Mode is "scan", "aggregate" or "summary" ("" keeps the current).
	Mode string `json:"mode,omitempty"`
	// Agg names the aggregate: count, sum, avg, min, max, var, stddev.
	Agg string `json:"agg,omitempty"`
	// K is the interactive-summary half window.
	K *int `json:"k,omitempty"`
	// ValueOrder toggles index-backed value-order slides.
	ValueOrder *bool `json:"valueOrder,omitempty"`
	// Where appends WHERE conjuncts.
	Where []FilterSpec `json:"where,omitempty"`
}

// FilterSpec is one WHERE conjunct on a named column. Value is the
// decoded JSON operand (number, string or bool).
type FilterSpec struct {
	Column string `json:"column"`
	Op     string `json:"op"`
	Value  any    `json:"value"`
}

// Response is the server's answer to one request.
type Response struct {
	V  int  `json:"v"`
	OK bool `json:"ok"`
	// Error holds the failure message when OK is false.
	Error string `json:"error,omitempty"`
	// Overloaded marks a failure as an admission-control rejection
	// (session admission cap, append rate limit, a draining server): the
	// request was not executed and should be retried after RetryAfter
	// seconds. The HTTP transport renders it as status 503 with a
	// Retry-After header.
	Overloaded bool `json:"overloaded,omitempty"`
	// RetryAfter is the suggested backoff in seconds when Overloaded.
	RetryAfter int `json:"retryAfter,omitempty"`
	// ObjectID reports the kernel id of a created/promoted object.
	ObjectID int `json:"objectId,omitempty"`
	// Results carries the frames an OpPerform produced.
	Results []ResultFrame `json:"results,omitempty"`
	// Stats answers OpStats.
	Stats *StatsFrame `json:"stats,omitempty"`
	// Epoch is the snapshot epoch an OpAppend published; Rows is the live
	// table's row count in that snapshot.
	Epoch uint64 `json:"epoch,omitempty"`
	Rows  int    `json:"rows,omitempty"`
	// Gone marks a failure as "session not found": the session was
	// evicted or the server restarted. A resume-aware client reacts by
	// sending OpResume and retrying.
	Gone bool `json:"gone,omitempty"`
	// Replayed answers OpResume: how many logged requests were replayed
	// to reconstruct the session.
	Replayed int `json:"replayed,omitempty"`
}

// ResultFrame is the wire rendering of one core.Result — a one-way
// display form for thin clients (values render as strings; join matches
// as a count).
type ResultFrame struct {
	Kind     string        `json:"kind"`
	ObjectID int           `json:"objectId"`
	TupleID  int           `json:"tupleId"`
	Col      int           `json:"col,omitempty"`
	Value    string        `json:"value,omitempty"`
	Agg      float64       `json:"agg,omitempty"`
	WindowLo int           `json:"windowLo,omitempty"`
	WindowHi int           `json:"windowHi,omitempty"`
	N        int64         `json:"n,omitempty"`
	GroupKey string        `json:"group,omitempty"`
	Matches  int           `json:"matches,omitempty"`
	Level    int           `json:"level,omitempty"`
	Time     time.Duration `json:"time"`
	FadeAt   time.Duration `json:"fadeAt,omitempty"`
	Latency  time.Duration `json:"latency,omitempty"`
}

// FrameResult renders a kernel result for the wire.
func FrameResult(r core.Result) ResultFrame {
	f := ResultFrame{
		Kind:     r.Kind.String(),
		ObjectID: r.ObjectID,
		TupleID:  r.TupleID,
		Col:      r.Col,
		Agg:      r.Agg,
		WindowLo: r.WindowLo,
		WindowHi: r.WindowHi,
		N:        r.N,
		GroupKey: r.GroupKey,
		Matches:  len(r.Matches),
		Level:    r.Level,
		Time:     r.Time,
		FadeAt:   r.FadeAt,
		Latency:  r.Latency,
	}
	switch r.Kind {
	case core.ScanValue:
		f.Value = r.Value.String()
	case core.TuplePeek:
		f.Value = fmt.Sprintf("%v", r.Tuple)
	}
	return f
}

// FrameResults renders a result batch.
func FrameResults(results []core.Result) []ResultFrame {
	if len(results) == 0 {
		return nil
	}
	out := make([]ResultFrame, len(results))
	for i, r := range results {
		out[i] = FrameResult(r)
	}
	return out
}

// StatsFrame is the wire form of a manager snapshot: admission state
// (live/max/evictions), the live session ids, and the durability gauges.
type StatsFrame struct {
	Live      int            `json:"live"`
	Max       int            `json:"max,omitempty"`
	Evictions int64          `json:"evictions"`
	Sessions  []SessionFrame `json:"sessions,omitempty"`
	// Durability gauges (all zero when the server runs without a session
	// log): requests teed to session/table logs, append/compaction
	// failures, checkpoint compactions, resumes served and requests
	// replayed by them.
	LoggedRequests   int64 `json:"loggedRequests,omitempty"`
	LogErrors        int64 `json:"logErrors,omitempty"`
	LogCompactions   int64 `json:"logCompactions,omitempty"`
	Resumes          int64 `json:"resumes,omitempty"`
	ReplayedRequests int64 `json:"replayedRequests,omitempty"`
}

// SessionFrame is one session's row in a StatsFrame.
type SessionFrame struct {
	ID string `json:"id"`
}

// OK returns a successful response envelope.
func OK() Response { return Response{V: Version, OK: true} }

// Errorf returns a failed response envelope.
func Errorf(format string, args ...any) Response {
	return Response{V: Version, Error: fmt.Sprintf(format, args...)}
}

// DefaultRetryAfterSec is the backoff hint stamped on overloaded
// responses when the server does not choose one.
const DefaultRetryAfterSec = 1

// Overloadedf returns a failed response marked as an admission-control
// rejection with the default retry hint.
func Overloadedf(format string, args ...any) Response {
	resp := Errorf(format, args...)
	resp.Overloaded = true
	resp.RetryAfter = DefaultRetryAfterSec
	return resp
}

// CheckVersion validates the request's version field.
func (r Request) CheckVersion() error {
	if r.V < 1 || r.V > Version {
		return fmt.Errorf("protocol: unsupported version %d (speaking %d)", r.V, Version)
	}
	return nil
}

// EncodeRequest stamps the current version and marshals the request. A
// request the /rpc handler decoded renders its batch as the Rows
// encoding/json would have decoded from it, written cell by cell.
func EncodeRequest(r Request) ([]byte, error) {
	if b := r.batch; r.Rows == nil && b != nil {
		return EncodeRows(r, b.Len(), b.Width(), b.Cell)
	}
	r.V = Version
	return json.Marshal(r)
}

// EncodeRows is EncodeRequest for r carrying rows x width cells, read
// through cell, as its Rows — the bytes json.Marshal writes for them boxed,
// without boxing them: how a table log writes a snapshot. encoding/json
// writes the envelope and appendRows the cells; Rows is Request's last
// field, so the cells go before the envelope's last brace.
func EncodeRows(r Request, rows, width int, cell func(r, c int) storage.Value) ([]byte, error) {
	r.V, r.Rows, r.batch = Version, nil, nil
	env, err := json.Marshal(r)
	if err != nil || rows == 0 {
		return env, err
	}
	b := make([]byte, 0, len(env)+16+rows*(8*width+3))
	b = append(append(b, env[:len(env)-1]...), `,"rows":`...)
	if b, err = appendRows(b, rows, width, cell); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// DecodeRequest unmarshals and version-checks one request. A body in the
// fast shape is read by hand (request_decode.go), its append rows boxed
// into Rows; the result is the one encoding/json would have produced.
func DecodeRequest(data []byte) (Request, error) {
	r, err := decodeRequest(data)
	if r.batch != nil {
		r.Rows, r.batch = boxRows(r.batch), nil
	}
	r.body = ""
	return r, err
}

// decodeRequest is DecodeRequest as the /rpc handler needs it: hand-parsed
// append rows stay a column-wise batch (Request.Batch), Rows nil, and the
// request keeps its body (Request.Body) — the string the walk reads, so
// keeping it copies nothing more.
func decodeRequest(data []byte) (Request, error) {
	body := string(data)
	r, ok := readRequest(body)
	if !ok {
		var err error
		if r, err = unmarshalRequest(data); err != nil {
			return Request{}, err
		}
	}
	if err := r.CheckVersion(); err != nil {
		return Request{}, err
	}
	r.body = body
	return r, nil
}

// unmarshalRequest decodes a body outside the walk's fast shape with
// encoding/json. Its own Request, not decodeRequest's, is the one that
// escapes to the heap.
func unmarshalRequest(data []byte) (Request, error) {
	var r Request
	if err := json.Unmarshal(data, &r); err != nil {
		return Request{}, fmt.Errorf("protocol: decoding request: %w", err)
	}
	return r, nil
}

// PeekRequest reads a body in the fast shape (request_decode.go) as the
// /rpc handler does, without the version check, and reports whether it
// was in that shape: a proxy routes on the fields without paying for
// reflection. A body outside it is encoding/json's to read.
func PeekRequest(data []byte) (r Request, ok bool) {
	return readRequest(string(data))
}

// EncodeResponse marshals the response, stamping the current version
// when the caller did not choose one. Handlers answer in the version the
// request spoke (HandleRequest echoes it), so v1 clients receive
// envelopes byte-identical to a v1 server's. The bytes are json.Marshal's,
// written by hand for the envelope and its result frames
// (response_encode.go).
func EncodeResponse(r Response) ([]byte, error) {
	if r.V < 1 || r.V > Version {
		r.V = Version
	}
	if b, ok := marshalResponse(&r); ok {
		return b, nil
	}
	return json.Marshal(r)
}

// DecodeResponse unmarshals one response.
func DecodeResponse(data []byte) (Response, error) {
	var r Response
	if err := json.Unmarshal(data, &r); err != nil {
		return Response{}, fmt.Errorf("protocol: decoding response: %w", err)
	}
	return r, nil
}

// ParseMode maps a wire mode name to the kernel touch mode.
func ParseMode(s string) (core.Mode, error) {
	switch strings.ToLower(s) {
	case "scan":
		return core.ModeScan, nil
	case "aggregate":
		return core.ModeAggregate, nil
	case "summary":
		return core.ModeSummary, nil
	default:
		return 0, fmt.Errorf("protocol: unknown mode %q", s)
	}
}

// CoerceValue converts a decoded JSON operand into a typed storage value
// with the same coercion the facade applies to Go operands.
func CoerceValue(v any) storage.Value {
	switch x := v.(type) {
	case int:
		return storage.IntValue(int64(x))
	case int64:
		return storage.IntValue(x)
	case float64:
		return storage.FloatValue(x)
	case bool:
		return storage.BoolValue(x)
	case string:
		return storage.StringValue(x)
	default:
		return storage.StringValue(fmt.Sprint(v))
	}
}

// Apply folds the delta into an object's current touch configuration.
// The matrix resolves filter column names; unknown names, modes,
// aggregates or comparisons reject the whole delta unapplied.
func (a ActionsSpec) Apply(cur core.Actions, m *storage.Matrix) (core.Actions, error) {
	out := cur
	if a.Mode != "" {
		mode, err := ParseMode(a.Mode)
		if err != nil {
			return cur, err
		}
		out.Mode = mode
	}
	if a.Agg != "" {
		agg, err := operator.ParseAggKind(strings.ToLower(a.Agg))
		if err != nil {
			return cur, err
		}
		out.Agg = agg
	}
	if a.K != nil {
		if *a.K < 0 {
			return cur, fmt.Errorf("protocol: negative summary window %d", *a.K)
		}
		out.SummaryK = *a.K
	}
	if a.ValueOrder != nil {
		out.ValueOrder = *a.ValueOrder
	}
	if len(a.Where) > 0 {
		// Full-capacity slice: later appends copy instead of sharing the
		// caller's backing array.
		out.Filters = out.Filters[:len(out.Filters):len(out.Filters)]
		for _, f := range a.Where {
			idx := m.ColumnIndex(f.Column)
			if idx < 0 {
				return cur, fmt.Errorf("protocol: no column %q", f.Column)
			}
			cmp, err := operator.ParseCmpOp(f.Op)
			if err != nil {
				return cur, err
			}
			out.Filters = append(out.Filters, operator.Predicate{Col: idx, Op: cmp, Operand: CoerceValue(f.Value)})
		}
	}
	return out, nil
}
