package protocol_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dbtouch"
	"dbtouch/internal/gesture"
	"dbtouch/internal/protocol"
	"dbtouch/internal/sessionlog"
	"dbtouch/internal/storage"
)

// BenchmarkRPCHandlerTap is one tap through the /rpc handler on a
// recorder — decode, execute on a real session, encode — with and
// without the per-request deadline: the difference between the two is
// what bounding a request costs.
func BenchmarkRPCHandlerTap(b *testing.B) {
	for _, bc := range []struct {
		name string
		opts []protocol.HandlerOption
	}{
		{"inline", nil},
		{"rpc-timeout", []protocol.HandlerOption{protocol.WithRPCTimeout(time.Minute)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			db := dbtouch.Open()
			vals := make([]float64, 100000)
			for i := range vals {
				vals[i] = float64(i * 7 % 1000)
			}
			db.NewTable("t").Float("v", vals).MustCreate()
			defer db.Manager().Close()
			h := protocol.NewHTTPHandler(db.Manager(), bc.opts...)
			post := func(req protocol.Request) {
				body, err := protocol.EncodeRequest(req)
				if err != nil {
					b.Fatal(err)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(body)))
				if resp, err := protocol.DecodeResponse(rec.Body.Bytes()); err != nil || !resp.OK {
					b.Fatalf("%s: %v %s", req.Op, err, rec.Body.Bytes())
				}
			}
			post(protocol.Request{Op: protocol.OpOpen, Session: "s"})
			post(protocol.Request{Op: protocol.OpCreate, Session: "s", Object: "o",
				Create: &protocol.CreateSpec{Table: "t", Column: "v", X: 2, Y: 2, W: 2, H: 10}})
			post(protocol.Request{Op: protocol.OpConfigure, Session: "s", Object: "o",
				Actions: &protocol.ActionsSpec{Mode: "summary"}})
			tap := gesture.NewTap(0, 0.5)
			body, err := protocol.EncodeRequest(protocol.Request{Op: protocol.OpPerform, Session: "s", Object: "o", Gesture: &tap})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
		})
	}
}

// BenchmarkRPCHandlerTapDurable is a gateway-stamped tap through the /rpc
// handler on a durable session (dbtouch-serve with -session-dir): each tap
// is also written to the session's log, which compacts into the session's
// checkpoint every CompactBytes of tail — compactions/op says how often.
// Sessions rotate every 5 000 performs, as bench's clients rotate theirs
// (open, create, configure, then taps; a wire evict ends each), so the
// per-tap cost includes the log's whole life at the length the fleet
// workload runs it to.
func BenchmarkRPCHandlerTapDurable(b *testing.B) {
	const rotateEvery = 5000
	st, err := sessionlog.Open(sessionlog.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	db := dbtouch.Open()
	vals := make([]float64, 100000)
	for i := range vals {
		vals[i] = float64(i * 7 % 1000)
	}
	db.NewTable("t").Float("v", vals).MustCreate()
	defer db.Manager().Close()
	db.Manager().EnableDurability(st)
	h := protocol.NewHTTPHandler(db.Manager(), protocol.WithRPCTimeout(time.Minute))
	post := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	encode := func(req protocol.Request, reqID string) []byte {
		body, err := protocol.EncodeRequest(req)
		if err != nil {
			b.Fatal(err)
		}
		// The gateway's stamp: the ReqID spliced in before the last brace.
		return append(body[:len(body)-1], `,"reqId":"`+reqID+`"}`...)
	}
	// taps alternate two ReqIDs: the dedupe cache holds a session's last
	// one, so consecutive taps must differ.
	var taps [2][]byte
	session, performs := 0, 0
	open := func() {
		session++
		name := fmt.Sprintf("bench-c0-s%d", session)
		post(encode(protocol.Request{Op: protocol.OpOpen, Session: name}, "g-open"))
		post(encode(protocol.Request{Op: protocol.OpCreate, Session: name, Object: "o",
			Create: &protocol.CreateSpec{Table: "t", Column: "v", X: 2, Y: 2, W: 2, H: 10}}, "g-create"))
		post(encode(protocol.Request{Op: protocol.OpConfigure, Session: name, Object: "o",
			Actions: &protocol.ActionsSpec{Mode: "summary"}}, "g-configure"))
		tap := gesture.NewTap(0, 0.5)
		for i := range taps {
			taps[i] = encode(protocol.Request{Op: protocol.OpPerform, Session: name, Object: "o", Gesture: &tap}, fmt.Sprintf("g-%d", i))
		}
		performs = 0
	}
	open()
	compacted := st.Stats().Compactions
	b.ReportAllocs()
	n := 0
	for b.Loop() {
		if performs == rotateEvery {
			post([]byte(fmt.Sprintf(`{"v":2,"op":"evict","session":"bench-c0-s%d"}`, session)))
			open()
		}
		post(taps[performs%2])
		performs++
		n++
	}
	b.ReportMetric(float64(st.Stats().Compactions-compacted)/float64(n), "compactions/op")
}

// BenchmarkRPCHandlerAppend is one 1000x3 append through the /rpc handler
// on a recorder — read, decode, coerce, land column-wise, publish, encode
// — against a live table whose retention makes it compact every 100
// batches, as stream_ingest's does.
func BenchmarkRPCHandlerAppend(b *testing.B) {
	benchmarkRPCHandlerAppend(b, nil)
}

// BenchmarkRPCHandlerAppendDurable is BenchmarkRPCHandlerAppend with the
// table logged (dbtouch-serve -live with -session-dir): each append is
// also encoded and written to the table's log, which compacts into a
// checkpoint of the whole table now and then — compactions/op says how
// often. The table is full before the clock starts.
func BenchmarkRPCHandlerAppendDurable(b *testing.B) {
	st, err := sessionlog.Open(sessionlog.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	benchmarkRPCHandlerAppend(b, st)
}

func benchmarkRPCHandlerAppend(b *testing.B, st *sessionlog.Store) {
	db := dbtouch.Open()
	defer db.Manager().Close()
	tb, err := storage.NewTable("events",
		storage.NewEmptyColumn("ts", storage.Int64),
		storage.NewEmptyColumn("key", storage.String),
		storage.NewEmptyColumn("value", storage.Int64))
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.SetRetention(storage.Retention{MaxRows: 50_000}); err != nil {
		b.Fatal(err)
	}
	db.Manager().Catalog().RegisterLive(tb)
	h := protocol.NewHTTPHandler(db.Manager(), protocol.WithRPCTimeout(time.Minute))
	body := ingestBody(b, 1000)
	post := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	var compacted int64
	if st != nil {
		db.Manager().EnableDurability(st)
		for i := 0; i < 100; i++ {
			post()
		}
		compacted = st.Stats().Compactions
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	n := 0
	for b.Loop() {
		post()
		n++
	}
	if st != nil {
		b.ReportMetric(float64(st.Stats().Compactions-compacted)/float64(n), "compactions/op")
	}
}
