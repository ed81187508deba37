package protocol_test

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"dbtouch/internal/protocol"
)

// BenchmarkDecodeAppend decodes the 1000x3 batch stream_ingest sends:
// "fast" is DecodeRequest, "json" the encoding/json decode it replaced
// and still falls back to.
func BenchmarkDecodeAppend(b *testing.B) {
	body := ingestBody(b, 1000)
	for _, bc := range []struct {
		name   string
		decode func([]byte) (protocol.Request, error)
	}{
		{"fast", protocol.DecodeRequest},
		{"json", oracleDecode},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				req, err := bc.decode(body)
				if err != nil || len(req.Rows) != 1000 {
					b.Fatalf("%d rows, %v", len(req.Rows), err)
				}
			}
		})
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
