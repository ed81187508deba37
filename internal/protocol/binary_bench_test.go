package protocol

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"dbtouch/internal/core"
	"dbtouch/internal/storage"
)

// Serialization cost per result frame, binary vs JSON, at the three frame
// sizes the stream coalescer actually produces: 1 (idle session, frame
// per result), 64 (bursty), 4096 (saturated slide). ns/op is the cost of
// one whole frame; bytes/frame and bytes/value report the wire size.
// scripts/bench.sh folds these into BENCH_kernels.json so wire cost joins
// the tracked perf trajectory.

func benchFrameSizes() []int { return []int{1, 64, 4096} }

func BenchmarkResultFrameEncodeBinary(b *testing.B) {
	for _, n := range benchFrameSizes() {
		b.Run(fmt.Sprintf("values=%d", n), func(b *testing.B) {
			results := genSlideRun(rand.New(rand.NewSource(int64(n))), n)
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = AppendBinaryResults(buf[:0], "bench", 1, results)
			}
			b.ReportMetric(float64(len(buf)), "bytes/frame")
			b.ReportMetric(float64(len(buf))/float64(n), "bytes/value")
		})
	}
}

func BenchmarkResultFrameEncodeJSON(b *testing.B) {
	for _, n := range benchFrameSizes() {
		b.Run(fmt.Sprintf("values=%d", n), func(b *testing.B) {
			results := genSlideRun(rand.New(rand.NewSource(int64(n))), n)
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				for _, r := range results {
					// The /stream loop's line encoder.
					frame := FrameResult(r)
					var err error
					if buf, err = appendFrameLine(buf, &frame); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(buf)), "bytes/frame")
			b.ReportMetric(float64(len(buf))/float64(n), "bytes/value")
		})
	}
}

func BenchmarkResultFrameDecodeBinary(b *testing.B) {
	for _, n := range benchFrameSizes() {
		b.Run(fmt.Sprintf("values=%d", n), func(b *testing.B) {
			enc := AppendBinaryResults(nil, "bench", 1, genSlideRun(rand.New(rand.NewSource(int64(n))), n))
			payload := enc[4:]
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := DecodeBinaryFrame(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkResultFrameDecodeJSON(b *testing.B) {
	for _, n := range benchFrameSizes() {
		b.Run(fmt.Sprintf("values=%d", n), func(b *testing.B) {
			enc := encodeNDJSON(genSlideRun(rand.New(rand.NewSource(int64(n))), n))
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec := json.NewDecoder(bytes.NewReader(enc))
				for {
					var f ResultFrame
					if err := dec.Decode(&f); err != nil {
						break
					}
					_ = f
				}
			}
		})
	}
}

// TestBinaryEncodeSpeedup asserts (not just reports) why the binary
// encoding exists, on the two properties that repeat exactly on any
// machine under any load: a 4096-value frame is at least 3x smaller than
// its NDJSON rendering, and encoding it allocates per column section, not
// per result — at most a third of what the encoding/json NDJSON reference
// allocates (one per line). Wall-clock cost is BenchmarkResultFrameEncode*'s
// to report (binary measures 4.9–6.5x cheaper than that reference on an
// idle machine): a timing ratio asserted inside `go test ./...`, where
// packages compete for the CPUs, fails on scheduling noise.
func TestBinaryEncodeSpeedup(t *testing.T) {
	results := genSlideRun(rand.New(rand.NewSource(42)), 4096)
	var ndjson bytes.Buffer
	enc := json.NewEncoder(&ndjson)
	jsonAllocs := testing.AllocsPerRun(5, func() {
		ndjson.Reset()
		for _, r := range results {
			_ = enc.Encode(FrameResult(r))
		}
	})
	var bin []byte
	binAllocs := testing.AllocsPerRun(5, func() {
		bin = AppendBinaryResults(bin[:0], "bench", 1, results)
	})
	t.Logf("encode 4096 values: ndjson %d B, %.0f allocs; binary %d B, %.0f allocs",
		ndjson.Len(), jsonAllocs, len(bin), binAllocs)
	if 3*len(bin) > ndjson.Len() {
		t.Fatalf("binary frame is %d B against %d B of NDJSON (want <= a third)", len(bin), ndjson.Len())
	}
	if 3*binAllocs > jsonAllocs {
		t.Fatalf("binary frame costs %.0f allocs against %.0f for NDJSON (want <= a third)", binAllocs, jsonAllocs)
	}
}

// TestBinaryScanFrameAllocs: a stream_ingest scan slide's frame — 196
// integer scan values — encodes into a reused buffer without per-result
// allocation (the values render with Value.AppendString, the sections
// are written in place).
func TestBinaryScanFrameAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	results := genSlideRun(rng, 196)
	for i := range results {
		results[i].Kind = core.ScanValue
		results[i].Agg, results[i].N = 0, 0
		results[i].Value = storage.IntValue(int64(rng.Intn(1_000_000)))
	}
	var buf []byte
	allocs := testing.AllocsPerRun(20, func() {
		buf = AppendBinaryResults(buf[:0], "ingest", 7, results)
	})
	if allocs > 8 {
		t.Fatalf("a 196-result scan frame allocates %.0f times, want ≤ 8", allocs)
	}
	_, frames, err := DecodeBinaryFrame(buf[4:])
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if want := results[i].Value.String(); f.Value != want {
			t.Fatalf("row %d value %q, want %q", i, f.Value, want)
		}
	}
}
