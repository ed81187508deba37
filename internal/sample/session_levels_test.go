package sample_test

import (
	"fmt"
	"testing"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/gesture"
	"dbtouch/internal/operator"
	"dbtouch/internal/sample"
	"dbtouch/internal/storage"
	"dbtouch/internal/touchos"
)

// levelSession is a kernel over a shared catalog whose sample source
// records every Shared it builds, so a test can ask which levels the
// session's touches built.
type levelSession struct {
	k      *core.Kernel
	m      *storage.Matrix
	shared []*sample.Shared
}

func newLevelSession(t *testing.T, cfg core.Config, rows int) *levelSession {
	t.Helper()
	ints := make([]int64, rows)
	flts := make([]float64, rows)
	strs := make([]string, rows)
	for i := range rows {
		ints[i] = int64(i * 7919 % 1000)
		flts[i] = float64(i*31%997) / 3
		strs[i] = fmt.Sprintf("k%02d", i*13%64)
	}
	m, err := storage.NewMatrix("big",
		storage.NewIntColumn("i", ints), storage.NewFloatColumn("f", flts), storage.NewStringColumn("s", strs))
	if err != nil {
		t.Fatal(err)
	}
	catalog := storage.NewCatalog()
	catalog.Register(m)
	s := &levelSession{k: core.NewKernel(cfg), m: m}
	s.k.ShareStorage(catalog, func(base *storage.Column, levels int) (*sample.Shared, error) {
		sh, err := sample.BuildShared(base, levels)
		if err == nil {
			s.shared = append(s.shared, sh)
		}
		return sh, err
	})
	return s
}

func (s *levelSession) perform(t *testing.T, g gesture.Gesture) []core.Result {
	t.Helper()
	results, err := s.k.Perform(g)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// built lists the levels above the base that some touch has built.
func (s *levelSession) built() []string {
	var out []string
	for si, sh := range s.shared {
		for i := 1; i < sh.NumLevels(); i++ {
			if sh.Built(i) {
				out = append(out, fmt.Sprintf("hierarchy %d level %d", si, i))
			}
		}
	}
	return out
}

// TestFilteredSessionBuildsNoLevel: scan_direct's session shape —
// filtered aggregates over a static table, full-height slides, then
// zoom in, zoomed slides and zoom out per object — reads base data only,
// so no level above the base is ever built.
func TestFilteredSessionBuildsNoLevel(t *testing.T) {
	s := newLevelSession(t, core.DefaultConfig(), 200_000)
	objects := []struct {
		col    int
		agg    operator.AggKind
		filter storage.Value
	}{
		{0, operator.Sum, storage.IntValue(500)},
		{0, operator.Max, storage.IntValue(500)},
		{1, operator.Sum, storage.FloatValue(150)},
		{2, operator.Count, storage.StringValue("k32")},
	}
	var ids []int
	for i, o := range objects {
		obj, err := s.k.CreateColumnObject(s.m, o.col, touchos.NewRect(float64(1+3*i), 2, 2, 10))
		if err != nil {
			t.Fatal(err)
		}
		obj.SetActions(core.Actions{Mode: core.ModeAggregate, Agg: o.agg,
			Filters: []operator.Predicate{{Col: o.col, Op: operator.Lt, Operand: o.filter}}})
		ids = append(ids, obj.ID())
	}
	for pass := 0; pass < 2; pass++ {
		for _, id := range ids {
			s.perform(t, gesture.NewSlide(id, 0, 1, 2*time.Second))
		}
	}
	for _, id := range ids {
		s.perform(t, gesture.NewZoom(id, 1.8))
		s.perform(t, gesture.NewSlide(id, 0.1, 0.5, 2*time.Second))
		s.perform(t, gesture.NewSlide(id, 0.7, 0.3, 2*time.Second))
		s.perform(t, gesture.NewZoom(id, 1/1.8))
	}
	if len(s.shared) != len(objects) {
		t.Fatalf("%d hierarchies built, want %d", len(s.shared), len(objects))
	}
	if b := s.built(); len(b) > 0 {
		t.Fatalf("filtered touches built sample levels: %v", b)
	}
}

// TestBoundedSummaryBuildsOnlyServingLevels: under a response bound,
// summary touches escalate past the levels they only probe, and
// gesture-aware eviction sets every tracker's direction; only the
// levels results come from are built.
func TestBoundedSummaryBuildsOnlyServingLevels(t *testing.T) {
	cfg := core.DefaultConfig()
	// Level 3 is the first whose 21-entry summary window fits: one cold
	// block plus 21>>3 = 2 warm entries.
	cfg.ResponseBound = cfg.IO.ColdLatency + 3*cfg.IO.WarmLatency
	// About 200 touches over 1 000 rows select levels 1 and 2 on their
	// own, which the bound escalates to level 3, the top.
	s := newLevelSession(t, cfg, 1000)
	obj, err := s.k.CreateColumnObject(s.m, 1, touchos.NewRect(2, 2, 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	obj.SetActions(core.Actions{Mode: core.ModeSummary, Agg: operator.Avg, SummaryK: 10})
	served := map[int]bool{}
	for _, g := range []gesture.Gesture{
		gesture.NewSlide(obj.ID(), 0, 1, 100*time.Second),
		gesture.NewSlide(obj.ID(), 1, 0.2, 80*time.Second),
	} {
		for _, r := range s.perform(t, g) {
			served[r.Level] = true
		}
	}
	if served[0] || served[1] || served[2] || len(served) == 0 {
		t.Fatalf("results came from levels %v: the bound should escalate every touch to level 3 or above", served)
	}
	sh := s.shared[0]
	for i := 1; i < sh.NumLevels(); i++ {
		if sh.Built(i) != served[i] {
			t.Fatalf("level %d built = %v, served results = %v", i, sh.Built(i), served[i])
		}
	}
}
