package protocol_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/gesture"
	"dbtouch/internal/protocol"
	"dbtouch/internal/session"
	"dbtouch/internal/storage"
)

// ingestBody is the append request bench/gen.go sends: rows of
// [timestamp, "kNN", value], compact JSON.
func ingestBody(tb testing.TB, rows int) []byte {
	rng := rand.New(rand.NewSource(int64(rows)))
	batch := make([][]any, rows)
	for r := range batch {
		batch[r] = []any{r, fmt.Sprintf("k%02d", rng.Intn(64)), rng.Intn(1_000_000)}
	}
	body, err := protocol.EncodeRequest(protocol.Request{Op: protocol.OpAppend, Table: "events", Rows: batch})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// servedBody is one request shape a server answers all day.
type servedBody struct {
	name string
	body []byte
}

// servedBodies are the perform bodies touch_direct sends — a script
// request as json.Marshal writes it — and a tap as a gateway forwards it,
// its ReqID stamped last.
func servedBodies(tb testing.TB) []servedBody {
	perform := func(g gesture.Gesture) []byte {
		body, err := json.Marshal(protocol.Request{V: protocol.Version, Op: protocol.OpPerform, Session: "touch-3", Object: "o", Gesture: &g})
		if err != nil {
			tb.Fatal(err)
		}
		return body
	}
	tap := perform(gesture.Gesture{Kind: gesture.KindTap, Frac: 0.4387})
	stamped := append(append([]byte{}, tap[:len(tap)-1]...), `,"reqId":"gw-dqsn0xfdb2v4-1742"}`...)
	return []servedBody{
		{"tap", tap},
		{"slide", perform(gesture.Gesture{Kind: gesture.KindSlide, Dur: 500 * time.Millisecond, From: 0.2113, To: 0.8765})},
		{"zoom", perform(gesture.Gesture{Kind: gesture.KindZoom, Factor: 1.5})},
		{"stamped", stamped},
	}
}

// oracleDecode is DecodeRequest as it was before the hand parser:
// encoding/json for the whole body.
func oracleDecode(data []byte) (protocol.Request, error) {
	var r protocol.Request
	if err := json.Unmarshal(data, &r); err != nil {
		return protocol.Request{}, fmt.Errorf("protocol: decoding request: %w", err)
	}
	if err := r.CheckVersion(); err != nil {
		return protocol.Request{}, err
	}
	return r, nil
}

// fuzzManager serves one live table and one session with an object on
// it, so every op has something real to reach.
func fuzzManager(t *testing.T) *session.Manager {
	m := session.NewManager(core.DefaultConfig())
	m.SetMaxSessions(4)
	tb, err := storage.NewTable("events",
		storage.NewEmptyColumn("ts", storage.Int64),
		storage.NewEmptyColumn("key", storage.String),
		storage.NewEmptyColumn("value", storage.Int64))
	if err != nil {
		t.Fatal(err)
	}
	m.Catalog().RegisterLive(tb)
	for _, req := range []protocol.Request{
		{V: 2, Op: protocol.OpAppend, Table: "events", Rows: [][]any{{1.0, "k01", 5.0}, {2.0, "k02", 6.0}}},
		{V: 2, Op: protocol.OpOpen, Session: "s"},
		{V: 2, Op: protocol.OpCreate, Session: "s", Object: "o",
			Create: &protocol.CreateSpec{Table: "events", Column: "value", X: 2, Y: 2, W: 2, H: 10}},
	} {
		if resp := m.HandleRequest(req); !resp.OK {
			t.Fatalf("%s: %s", req.Op, resp.Error)
		}
	}
	return m
}

// FuzzDecodeRequest holds the hand-written request decoder to its oracle
// — the same Request and the same error text as encoding/json for any
// bytes — and the hand-written encoder behind the table log to
// json.Marshal, byte for byte; then the trust boundary behind them:
// whatever decodes is handled with a response, never a panic.
func FuzzDecodeRequest(f *testing.F) {
	batch := ingestBody(f, 1000)
	if !protocol.TookFastPath(batch) {
		f.Fatal("the bench-shaped 1000x3 batch left the fast path")
	}
	f.Add(batch)
	for _, sb := range servedBodies(f) {
		if !protocol.TookFastPath(sb.body) {
			f.Fatalf("the bench-shaped %s left the fast path: %s", sb.name, sb.body)
		}
		f.Add(sb.body)
	}
	for _, seed := range []string{
		`{"v":2,"op":"append","table":"events","rows":[[1,"a",2],[3,"b",4]]}`,
		`{"rows":[[1,"a",2]],"v":2,"op":"append","table":"events"}`,
		`{"v":2,"op":"append","rows":[[1,"a",2]],"table":"events"}`,
		`{"v":2,"op":"append","table":"events","ROWS":[[1,"a",2]]}`,
		`{"v":2,"op":"append","table":"events","Rows":[[1,"a",2]],"rows":[[3,"b",4]]}`,
		`{"v":2,"op":"append","table":"events","rows":[[3,"b",4]],"Rows":[[1,"a",2]]}`,
		`{"v":2,"op":"append","table":"events","rowſ":[[1,"a",2]]}`,
		`{"v":2,"op":"append","table":"events","rows":[[1,"a",2]],"rows":[[3,"b",4]]}`,
		`{"v":2,"op":"append","table":"events","rows":[[1,"a",2]]}`,
		`{"v":2,"op":"append","table":"events","rows":null}`,
		`{"v":2,"op":"append","table":"events","rows":[]}`,
		`{"v":2,"op":"append","table":"events","rows":[[]]}`,
		`{"v":2,"op":"append","table":"events","rows":[[1,null,2]]}`,
		`{"v":2,"op":"append","table":"events","rows":[[1,[2],{"a":3}]]}`,
		`{"v":2,"op":"append","table":"events","rows":[[1,"é",2]]}`,
		`{"v":2,"op":"append","table":"events","rows":[[1,"é",2]]}`,
		"{\"v\":2,\"op\":\"append\",\"table\":\"events\",\"rows\":[[1,\"\xff\",2]]}",
		"{\"v\":2,\"op\":\"append\",\"table\":\"events\",\"rows\":[[1,\"a\x01b\",2]]}",
		"{\"v\":2,\"op\":\"append\",\"table\":\"events\",\"rows\":[[1,\"a\tb\",2]]}",
		`{"v":2,"op":"append","table":"events","rows":[[-0,"a\"b",2]]}`,
		`{"v":2,"op":"append","table":"events","rows":[[-0,0,-0.0,1e-7,1E+2]]}`,
		`{"v":2,"op":"append","table":"events","rows":[[1e400,"a",2]]}`,
		`{"v":2,"op":"append","table":"events","rows":[[12345678901234567890,123456789012345678,0.1234567890123456789]]}`,
		`{"v":2,"op":"append","table":"events","rows":[[01,"a",2]]}`,
		`{"v":2,"op":"append","table":"events","rows":[[1.,"a",2]]}`,
		`{"v":2,"op":"append","table":"events","rows":[[-,"a",2]]}`,
		`{"v":2,"op":"append","table":"events","rows":[[1e,"a",2]]}`,
		`{"v":2,"op":"append","table":"events","rows":[[true,false,truex]]}`,
		`{"v":2,"op":"append","table":"events","rows":[[1,"a",2]]} x`,
		`{"v":2,"op":"append","table":"events","rows":[[1,"a",2]],}`,
		`{"v":2,"op":"append","table":"events","rows":[[1,"a",2],]}`,
		`{"v":2,"op":"append","table":"events","rows":[[1,"a",2,]]}`,
		" \t\r\n{ \"v\" : 2 , \"op\" : \"append\" , \"table\" : \"events\" , \"rows\" : [ [ 1 , \"a\" , true ] , [ 2 , \"b\" , false ] ] } \n",
		`{"v":"2","op":"append","table":"events","rows":[[1,"a",2]]}`,
		`{"v":9,"op":"append","table":"events","rows":[[1,"a",2]]}`,
		`{"v":2,"op":"append","table":"events","create":{"rows":[[1]]},"rows":[[1,"a",2]]}`,
		`{"v":2,"op":"append","table":"a\",\"rows\":[[9]],\"x\":\"","rows":[[1,"a",2]]}`,
		`{"v":2,"op":"append","table":"events","rows":[[1,"a"]]}`,
		`{"v":2,"op":"open","session":"t"}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":{"kind":"slide","duration":500000000,"from":0.1,"to":0.9}}`,
		`{"v":2,"op":"configure","session":"s","object":"o","actions":{"mode":"aggregate","agg":"sum","where":[{"column":"key","op":">=","value":"k32"}]}}`,
		`{"v":2,"op":"pin","session":"s","object":"o","as":"p","create":{"x":1,"y":1,"w":1,"h":1}}`,
		`{"v":2,"op":"idle","session":"s","idle":-5}`,
		`{"v":2,"op":"stats"}`,
		`{"v":2,"op":"resume","session":"s"}`,
		`{"v":1,"op":"evict","session":"s"}`,
		// The edges of the request walk's fast shape.
		`{"v":2,"OP":"perform","session":"s","object":"o","gesture":{"kind":"tap","frac":0.5}}`,
		`{"v":2,"op":"perform","session":"s","object":"o","Gesture":{"kind":"tap","frac":0.5}}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":{"Kind":"tap","frac":0.5}}`,
		`{"v":2,"op":"idle","session":"a","session":"b","idle":5}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":{"kind":"tap","frac":0.5,"frac":0.25}}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":null}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":{}}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":{ }}`,
		`{"v":2.0,"op":"stats"}`,
		`{"v":02,"op":"stats"}`,
		`{"v":-0,"op":"stats"}`,
		`{"v":-2,"op":"stats"}`,
		`{"v":2e0,"op":"stats"}`,
		`{"v":null,"op":"stats"}`,
		`{"v":2,"op":null}`,
		`{}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":{"kind":"slide","dur":1e9,"to":1}}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":{"kind":"tap","frac":-0}}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":{"kind":"tap","frac":1e400}}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":{"kind":"slide","dur":123456789012345678,"to":1}}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":{"kind":"slide","dur":1234567890123456789,"to":1}}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":{"kind":"slide","dur":9999999999999999999,"to":1}}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":{"kind":"back-and-forth","dur":-1,"passes":99999999999999999999}}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":{"kind":"tap","fracs":0.5}}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":{"kind":"tap","frac":"0.5"}}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":{"kind":"move","x":1.5,"y":-2,"target":7}}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":{"kind":"slide-pause","dur":2000000000,"pauseAt":0.5,"pauseDur":300000000}}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":{"kind":"tap","frac":0.5}`,
		`{"v":2,"op":"perform","session":"s","object":"o","gesture":[1]}`,
		`{"v":2,"op":"open","session":"a\"b"}`,
		`{"v":2,"op":"open","session":"a\u0062"}`,
		"{\"v\":2,\"op\":\"open\",\"session\":\"\xff\xfe\"}",
		"{\"v\":2,\"op\":\"open\",\"session\":\"\xe2\x82\"}",
		"{\"v\":2,\"op\":\"open\",\"session\":\"é\u2028\x7f\"}",
		"{\"v\":2,\"op\":\"open\",\"session\":\"a\x00\"}",
		`{"v":2,"op":"stats"}x`,
		`{"v":2,"op":"stats"}}`,
		`{"v":2,"op":"stats",}`,
		`{"v":2 "op":"stats"}`,
		`{"v":2,"op":"append","table":"events","rows":[[1,"a",2]],"extra":1}`,
		`{"v":2,"op":"append","table":"events","rows":[[1,"a",2]],"idle":7,"as":"x","object":"y"}`,
		`{"v":2,"op":"pin","session":"s","object":"o","as":"p"}`,
		`{"v":1,"op":"idle","session":"s","idle":-0,"reqId":"r-1"}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := protocol.DecodeRequest(data)
		want, wantErr := oracleDecode(data)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("error diverged from encoding/json:\n got %v\nwant %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("request diverged from encoding/json:\n got %+v\nwant %+v", got, want)
		}
		// DeepEqual calls -0 and 0 equal; their renderings differ.
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("request re-encodes differently:\n got %s\nwant %s", gotJSON, wantJSON)
		}
		// Rows may share one backing array, but never so that growing one
		// overwrites the next.
		clobber := any(new(int))
		for i := 0; i+1 < len(got.Rows); i++ {
			if next := got.Rows[i+1]; len(next) > 0 {
				_ = append(got.Rows[i], clobber)
				if next[0] == clobber {
					t.Fatalf("append on row %d wrote into row %d", i, i+1)
				}
			}
		}
		if gotErr != nil {
			return
		}
		// The table log writes the handler's decode: EncodeRequest renders it
		// as json.Marshal renders the request encoding/json decodes.
		cols, _ := protocol.DecodeColumns(data)
		logged, logErr := protocol.EncodeRequest(cols)
		want.V = protocol.Version
		wantLogged, wantLogErr := json.Marshal(want)
		if (logErr == nil) != (wantLogErr == nil) || !bytes.Equal(logged, wantLogged) {
			t.Fatalf("logged request diverged from json.Marshal:\n got %s (%v)\nwant %s (%v)", logged, logErr, wantLogged, wantLogErr)
		}
		m := fuzzManager(t)
		defer m.Close()
		if resp := m.HandleRequest(got); resp.V != got.V {
			t.Fatalf("response speaks v%d to a v%d request", resp.V, got.V)
		}
	})
}

// FuzzEncodeResponse holds the hand-written response encoder to
// json.Marshal byte for byte, including where it must fail.
func FuzzEncodeResponse(f *testing.F) {
	f.Add(true, "", "aggregate", "", "", 12.5, int64(3), 7, false)
	f.Add(false, `perform: unknown object "<o>&"`, "scan", "a\\b", "g ", 0.0, int64(0), 0, true)
	f.Add(true, "\xff\xfe", "summary", "é", "\x00\x1f\x7f", math.Copysign(0, -1), int64(-1), -3, false)
	f.Add(true, "", "k", "", "", 1e-7, int64(1)<<62, 1, false)
	f.Add(true, "", "k", "", "", 1e21, int64(0), 1, false)
	f.Add(true, "", "k", "", "", 1e-6, int64(0), 1, false)
	f.Add(true, "", "k", "", "", 123456789e-20, int64(0), 1, false)
	f.Add(true, "", "k", "", "", 5e-324, int64(0), 1, false)
	f.Add(true, "", "k", "", "", -1.7976931348623157e308, int64(0), 1, false)
	f.Add(true, "", "k", "", "", float64(1<<53), int64(0), 1, false)
	f.Add(true, "", "k", "", "", float64(1<<53-1), int64(0), 1, false)
	f.Add(true, "", "k", "", "", -float64(1<<53+2), int64(0), 1, false)
	f.Add(true, "", "k", "", "", 123456789012345678.0, int64(0), 1, false)
	f.Add(true, "", "k", "", "", -48213.0, int64(0), 1, false)
	f.Add(true, "", "k", "", "", math.NaN(), int64(0), 1, false)
	f.Add(true, "", "k", "", "", math.Inf(1), int64(0), 1, false)
	f.Add(true, "", "k", "", "", math.Inf(-1), int64(0), 2, true)

	f.Fuzz(func(t *testing.T, ok bool, errText, kind, value, group string, agg float64, n int64, k int, flag bool) {
		frame := protocol.ResultFrame{
			Kind: kind, ObjectID: k, TupleID: int(n % 1000), Col: k % 3, Value: value, Agg: agg,
			WindowLo: k - 1, WindowHi: k + 1, N: n, GroupKey: group, Matches: k % 2, Level: k % 5,
			Time: time.Duration(n), FadeAt: time.Duration(n / 2), Latency: time.Duration(k),
		}
		resp := protocol.Response{
			V: k % 4, OK: ok, Error: errText, Overloaded: flag, RetryAfter: k % 2, ObjectID: k,
			Epoch: uint64(n), Rows: int(n % 7), Gone: !flag && !ok, Replayed: k % 3,
		}
		for i := 0; i < k%4; i++ {
			resp.Results = append(resp.Results, protocol.ResultFrame{Kind: kind, TupleID: i, Time: time.Duration(i)}, frame)
		}
		if flag && k%5 == 0 {
			resp.Stats = &protocol.StatsFrame{Live: k, Sessions: []protocol.SessionFrame{{ID: value}}}
		}
		got, gotErr := protocol.EncodeResponse(resp)
		if resp.V < 1 || resp.V > protocol.Version {
			resp.V = protocol.Version
		}
		want, wantErr := json.Marshal(resp)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("error diverged from json.Marshal:\n got %v\nwant %v", gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("bytes diverged from json.Marshal:\n got %s\nwant %s", got, want)
		}
		// The /rpc writer renders through a pooled buffer that the
		// previous input, longer or shorter, used last.
		if wantErr == nil {
			rec := httptest.NewRecorder()
			protocol.WriteResponse(rec, resp)
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("WriteResponse diverged from json.Marshal:\n got %s\nwant %s", rec.Body.Bytes(), want)
			}
		}
	})
}
