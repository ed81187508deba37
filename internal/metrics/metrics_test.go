package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		h.Observe(d)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 2*time.Millisecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	if s := h.String(); !strings.Contains(s, "min=1ms max=3ms") {
		t.Fatalf("String = %q, want min=1ms max=3ms", s)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(time.Second)
	p50 := h.Quantile(0.5)
	if p50 > 4*time.Millisecond {
		t.Fatalf("p50 = %v, want ≈1ms bucket", p50)
	}
	p999 := h.Quantile(0.999)
	if p999 < 500*time.Millisecond {
		t.Fatalf("p999 = %v, want ≈1s bucket", p999)
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(time.Second)
	h.Reset()
	if h.Count() != 0 {
		t.Fatal("reset failed")
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	h.Observe(5 * time.Millisecond)
	s := h.String()
	if !strings.Contains(s, "n=1") || !strings.Contains(s, "mean=5ms") {
		t.Fatalf("String = %q", s)
	}
}

func TestSeriesPrint(t *testing.T) {
	s := &Series{Name: "curve", XLabel: "x", YLabel: "y"}
	s.Add(1, 10)
	s.Add(2, 20)
	var sb strings.Builder
	s.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"# curve", "x", "y", "10", "20"} {
		if !strings.Contains(out, want) {
			t.Fatalf("series output missing %q:\n%s", want, out)
		}
	}
}

func TestTablePrintAlignment(t *testing.T) {
	tb := &Table{Header: []string{"name", "value"}}
	tb.AddRow("alpha", "1")
	tb.AddRow("a-much-longer-name", "22")
	var sb strings.Builder
	tb.Fprint(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), sb.String())
	}
	// Separator row present and as wide as the widest cell.
	if !strings.Contains(lines[1], "----") {
		t.Fatalf("missing separator: %q", lines[1])
	}
	// Columns align: "value" column starts at the same offset in rows.
	idx := strings.Index(lines[0], "value")
	if !strings.HasPrefix(lines[2][idx:], "1") {
		t.Fatalf("misaligned value column:\n%s", sb.String())
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Add("b", 2)
	c.Add("a", 1)
	c.Add("b", 3)
	if c.Get("b") != 5 || c.Get("a") != 1 || c.Get("zero") != 0 {
		t.Fatal("counter math wrong")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

// TestBucketForBoundaries pins bucketFor at both sides of every bucket
// edge, 1000·2^k − 1 and 1000·2^k ns, against an exact integer rule.
func TestBucketForBoundaries(t *testing.T) {
	want := func(d time.Duration) int {
		b := 0
		for edge := time.Microsecond; d >= edge && b < 27; edge *= 2 {
			b++
		}
		return b
	}
	for _, d := range []time.Duration{-time.Second, -1, 0, 1, 999} {
		if got := bucketFor(d); got != want(d) {
			t.Fatalf("bucketFor(%d) = %d, want %d", d, got, want(d))
		}
	}
	for k := 0; k < 40; k++ {
		edge := time.Microsecond << k
		for _, d := range []time.Duration{edge - 1, edge} {
			if got := bucketFor(d); got != want(d) {
				t.Fatalf("bucketFor(%d) = %d, want %d", d, got, want(d))
			}
		}
	}
}
