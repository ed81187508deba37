package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/storage"
)

// genResults builds a plausible result stream: mostly slide-shaped runs
// (monotone tuple ids, nondecreasing times) with occasional kind and
// object switches, covering every result kind and negative/zero edges.
func genResults(rng *rand.Rand, n int) []core.Result {
	out := make([]core.Result, 0, n)
	now := time.Duration(rng.Intn(1000)) * time.Millisecond
	tid := rng.Intn(1000)
	obj := 1 + rng.Intn(3)
	kind := core.ResultKind(rng.Intn(6))
	for len(out) < n {
		if rng.Intn(16) == 0 {
			obj = 1 + rng.Intn(3)
			kind = core.ResultKind(rng.Intn(6))
			tid = rng.Intn(100000)
		}
		tid += rng.Intn(64) - 8
		if tid < 0 {
			tid = 0
		}
		now += time.Duration(rng.Intn(70)) * time.Millisecond
		r := core.Result{
			Kind:     kind,
			ObjectID: obj,
			TupleID:  tid,
			Time:     now,
			FadeAt:   now + core.FadeAfter,
			Latency:  time.Duration(rng.Intn(70)) * time.Millisecond,
			Level:    rng.Intn(14),
		}
		switch kind {
		case core.ScanValue:
			r.Value = storage.FloatValue(rng.NormFloat64() * 1000)
		case core.AggregateValue:
			r.Agg = rng.NormFloat64() * 1e6
			r.N = int64(rng.Intn(100000))
		case core.SummaryValue:
			r.WindowLo = tid - rng.Intn(32)
			r.WindowHi = tid + rng.Intn(32)
			r.Agg = rng.NormFloat64()
			r.N = int64(r.WindowHi - r.WindowLo)
		case core.TuplePeek:
			r.Tuple = []storage.Value{storage.IntValue(int64(tid)), storage.StringValue("x")}
			r.Col = rng.Intn(8)
		case core.GroupValue:
			r.GroupKey = []string{"alpha", "beta", "gamma"}[rng.Intn(3)]
			r.Agg = float64(rng.Intn(1000))
			r.N = int64(rng.Intn(1000))
		}
		out = append(out, r)
	}
	return out
}

// TestBinaryRoundTrip: decode(encode(results)) must equal the JSON
// rendering FrameResults produces — the byte-equivalence contract that
// makes NDJSON the record/replay ground truth for both encodings.
func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		results := genResults(rng, 1+rng.Intn(300))
		want := FrameResults(results)

		enc := AppendBinaryResults(nil, "s1", 42, results)
		var got []ResultFrame
		sc := NewBinaryScanner(bytes.NewReader(enc))
		for {
			f, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("trial %d: decode: %v", trial, err)
			}
			got = append(got, f)
		}
		for rest := enc; len(rest) > 0; {
			n := 4 + int(binary.LittleEndian.Uint32(rest))
			h, _, err := DecodeBinaryFrame(rest[4:n])
			if err != nil || h.Session != "s1" || h.Epoch != 42 {
				t.Fatalf("trial %d: header = %+v, err %v; want session s1 epoch 42", trial, h, err)
			}
			rest = rest[n:]
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("trial %d: frame %d:\n got %+v\nwant %+v", trial, i, got, want[i])
				}
			}
			t.Fatalf("trial %d: got %d frames, want %d", trial, len(got), len(want))
		}

		// The JSON rendering of both paths must be identical too — what a
		// client that re-serializes sees.
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("trial %d: JSON rendering differs", trial)
		}
	}
}

// TestBinaryRoundTripEdgeValues pins exactness on the edges: NaN/±Inf
// aggregates, max tuple ids, zero rows, and texts whose length prefix
// needs more than one byte.
func TestBinaryRoundTripEdgeValues(t *testing.T) {
	long := strings.Repeat("é", 100)
	results := []core.Result{
		{Kind: core.AggregateValue, ObjectID: 1, Agg: math.NaN(), N: math.MaxInt64},
		{Kind: core.AggregateValue, ObjectID: 1, Agg: math.Inf(1), TupleID: math.MaxInt32},
		{Kind: core.AggregateValue, ObjectID: 1, Agg: math.Inf(-1), TupleID: 0},
		{Kind: core.AggregateValue, ObjectID: 1, Agg: math.Copysign(0, -1)},
		{Kind: core.AggregateValue, ObjectID: 1},
		{Kind: core.ScanValue, ObjectID: 1, Value: storage.StringValue(long)},
		{Kind: core.ScanValue, ObjectID: 1, Value: storage.StringValue(strings.Repeat(long, 200))},
		{Kind: core.ScanValue, ObjectID: 1, Value: storage.StringValue("")},
		{Kind: core.GroupValue, ObjectID: 1, GroupKey: long},
	}
	enc := AppendBinaryResults(nil, "", 0, results)
	want := FrameResults(results)
	sc := NewBinaryScanner(bytes.NewReader(enc))
	for i, w := range want {
		g, err := sc.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		// NaN != NaN under DeepEqual on float fields compared bitwise.
		if math.Float64bits(g.Agg) != math.Float64bits(w.Agg) {
			t.Fatalf("frame %d: agg bits %x != %x", i, math.Float64bits(g.Agg), math.Float64bits(w.Agg))
		}
		g.Agg, w.Agg = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("frame %d: got %+v want %+v", i, g, w)
		}
	}
}

// encodeNDJSON renders results the v1 way: one JSON object per line.
func encodeNDJSON(results []core.Result) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range results {
		_ = enc.Encode(FrameResult(r))
	}
	return buf.Bytes()
}

// TestBinaryFrameSizeRatio pins the wire-efficiency acceptance bound: a
// 4096-value frame must be at least 4x smaller than its NDJSON
// rendering (the measured ratio also lands in BENCH_kernels.json via
// the serialization benchmarks).
func TestBinaryFrameSizeRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	results := genSlideRun(rng, 4096)
	jsonBytes := len(encodeNDJSON(results))
	binBytes := len(AppendBinaryResults(nil, "bench-session", 3, results))
	ratio := float64(jsonBytes) / float64(binBytes)
	t.Logf("4096-value frame: json=%dB binary=%dB ratio=%.1fx (%.1f vs %.1f bytes/value)",
		jsonBytes, binBytes, ratio, float64(jsonBytes)/4096, float64(binBytes)/4096)
	if ratio < 4 {
		t.Fatalf("binary frame only %.2fx smaller than JSON (want >= 4x): %d vs %d bytes", ratio, binBytes, jsonBytes)
	}
}

// genSlideRun models the dominant stream shape: one object sliding in
// aggregate mode, emitting monotone ids and times.
func genSlideRun(rng *rand.Rand, n int) []core.Result {
	out := make([]core.Result, n)
	now := time.Duration(0)
	tid := 0
	for i := range out {
		tid += 1 + rng.Intn(40)
		now += time.Duration(60+rng.Intn(10)) * time.Millisecond
		out[i] = core.Result{
			Kind:     core.AggregateValue,
			ObjectID: 1,
			TupleID:  tid,
			Agg:      rng.NormFloat64() * 1e6,
			N:        int64(tid),
			Level:    3,
			Time:     now,
			FadeAt:   now + core.FadeAfter,
			Latency:  65 * time.Millisecond,
		}
	}
	return out
}

// TestBinaryDecodeRejects: corrupt and adversarial inputs error cleanly.
func TestBinaryDecodeRejects(t *testing.T) {
	good := AppendBinaryResults(nil, "s", 1, genSlideRun(rand.New(rand.NewSource(1)), 8))
	payload := good[4:] // strip length prefix

	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     append([]byte{0x00}, payload[1:]...),
		"bad version":   append([]byte{binaryMagic, 99}, payload[2:]...),
		"bad kind":      append([]byte{binaryMagic, BinaryVersion, 99}, payload[3:]...),
		"truncated":     payload[:len(payload)/2],
		"header only":   payload[:4],
		"rowcount huge": {binaryMagic, BinaryVersion, frameKindResults, 0, 0, 1, 0, 0xFF, 0xFF, 0x3F},
	}
	for name, data := range cases {
		if _, _, err := DecodeBinaryFrame(data); err == nil {
			t.Errorf("%s: decode accepted corrupt frame", name)
		}
	}

	// Truncated stream: scanner must error, not hang or panic.
	sc := NewBinaryScanner(bytes.NewReader(good[:len(good)-3]))
	var err error
	for err == nil {
		_, err = sc.Next()
	}
	if err == io.EOF {
		t.Errorf("truncated stream reported clean EOF")
	}

	// Oversized length prefix: rejected before allocation.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	sc = NewBinaryScanner(bytes.NewReader(huge))
	if _, err := sc.Next(); err == nil {
		t.Errorf("oversized length prefix accepted")
	}
}
