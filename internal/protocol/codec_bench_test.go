package protocol_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dbtouch/internal/protocol"
)

// BenchmarkDecodeAppend decodes the 1000x3 batch stream_ingest sends:
// "columns" is the /rpc handler's decode into typed column vectors,
// "fast" DecodeRequest (the same parse, boxed into Rows), "json" the
// encoding/json decode both fall back to.
func BenchmarkDecodeAppend(b *testing.B) {
	body := ingestBody(b, 1000)
	for _, bc := range []struct {
		name   string
		decode func([]byte) (rows int, err error)
	}{
		{"columns", func(data []byte) (int, error) {
			req, err := protocol.DecodeColumns(data)
			return req.Batch().Len(), err
		}},
		{"fast", func(data []byte) (int, error) {
			req, err := protocol.DecodeRequest(data)
			return len(req.Rows), err
		}},
		{"json", func(data []byte) (int, error) {
			req, err := oracleDecode(data)
			return len(req.Rows), err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				if rows, err := bc.decode(body); err != nil || rows != 1000 {
					b.Fatalf("%d rows, %v", rows, err)
				}
			}
		})
	}
}

// BenchmarkDecodeRequest decodes the perform bodies served all day
// (servedBodies): "fast" is DecodeRequest's walk, "json" the
// encoding/json decode it falls back to.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, sb := range servedBodies(b) {
		if sb.name == "zoom" {
			continue // a tap with another gesture key
		}
		for _, bc := range []struct {
			name   string
			decode func([]byte) (protocol.Request, error)
		}{{"fast", protocol.DecodeRequest}, {"json", oracleDecode}} {
			b.Run(sb.name+"/"+bc.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if req, err := bc.decode(sb.body); err != nil || req.Gesture == nil {
						b.Fatalf("%+v, %v", req, err)
					}
				}
			})
		}
	}
}

// TestDecodeTapAllocs gates the walk's allocations on a served tap: the
// body's string copy and the gesture (encoding/json takes 11).
func TestDecodeTapAllocs(t *testing.T) {
	for _, sb := range servedBodies(t) {
		n := testing.AllocsPerRun(100, func() {
			if _, err := protocol.DecodeRequest(sb.body); err != nil {
				t.Fatal(err)
			}
		})
		if n > 2 {
			t.Errorf("decoding a %s takes %.0f allocations, want at most 2", sb.name, n)
		}
	}
}

// discardWriter is an http.ResponseWriter that keeps nothing: what a
// WriteResponse allocates is its own.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestWriteResponseAllocs gates the /rpc answer: a 21-frame perform
// response renders into a pooled buffer, so the body allocates nothing.
// The one allocation left is the Content-Type header's value slice.
func TestWriteResponseAllocs(t *testing.T) {
	resp := performResponse(21)
	w := &discardWriter{h: http.Header{}}
	n := testing.AllocsPerRun(100, func() { protocol.WriteResponse(w, resp) })
	if n > 1 {
		t.Fatalf("writing a 21-frame response takes %.0f allocations, want at most 1 (the header value)", n)
	}
}

// TestWriteResponseNoStaleBytes writes short answers right after long
// ones through the pooled buffer: each body must be exactly its own
// encoding, with nothing of the longer answer before it carried over.
func TestWriteResponseNoStaleBytes(t *testing.T) {
	for _, resp := range []protocol.Response{
		performResponse(200), protocol.OK(), performResponse(21), protocol.Errorf("perform: unknown object %q", "o"),
		performResponse(1), protocol.Overloadedf("busy"), performResponse(0),
	} {
		want, err := protocol.EncodeResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		protocol.WriteResponse(rec, resp)
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("WriteResponse wrote\n%s\nwant\n%s", rec.Body.Bytes(), want)
		}
	}
}

// performResponse is a perform's answer carrying n aggregate frames, the
// shape a tap (1) and a stream_ingest scan slide (200) produce.
func performResponse(n int) protocol.Response {
	rng := rand.New(rand.NewSource(int64(n)))
	resp := protocol.OK()
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		now += time.Duration(60+rng.Intn(10)) * time.Millisecond
		resp.Results = append(resp.Results, protocol.ResultFrame{
			Kind: "aggregate", ObjectID: 1, TupleID: i * 1250, Agg: rng.NormFloat64() * 1e6,
			WindowLo: i * 1250, WindowHi: (i + 1) * 1250, N: int64(rng.Intn(1250)), Level: 3,
			Time: now, FadeAt: now + 2*time.Second, Latency: 65 * time.Millisecond,
		})
	}
	return resp
}

// BenchmarkEncodeResponse encodes a perform's answer; the json sub-runs
// are the encoder EncodeResponse replaced.
func BenchmarkEncodeResponse(b *testing.B) {
	for _, n := range []struct {
		name    string
		results int
	}{{"tap", 1}, {"scan200", 200}} {
		resp := performResponse(n.results)
		for _, bc := range []struct {
			name   string
			encode func(protocol.Response) ([]byte, error)
		}{
			{n.name, protocol.EncodeResponse},
			{n.name + "-json", func(r protocol.Response) ([]byte, error) { return json.Marshal(r) }},
		} {
			b.Run(bc.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := bc.encode(resp); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestPerformResponseEncodesLikeJSON pins the benchmarked responses (200
// frames of arbitrary floats) to json.Marshal's bytes.
func TestPerformResponseEncodesLikeJSON(t *testing.T) {
	for _, n := range []int{0, 1, 200} {
		resp := performResponse(n)
		got, err := protocol.EncodeResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(resp)
		if string(got) != string(want) {
			t.Fatalf("%d results: hand encoding differs from json.Marshal:\n got %s\nwant %s", n, got, want)
		}
	}
}
