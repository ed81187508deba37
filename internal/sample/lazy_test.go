package sample

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"dbtouch/internal/storage"
	"dbtouch/internal/vclock"
)

// lazyColumns are one column of every type, long enough for nine levels.
func lazyColumns(n int) []*storage.Column {
	ints := make([]int64, n)
	flts := make([]float64, n)
	bools := make([]bool, n)
	strs := make([]string, n)
	for i := range n {
		ints[i] = int64(i*7919%100003) - 50000
		flts[i] = float64(i*31%977) / 7
		bools[i] = i%3 == 0
		strs[i] = fmt.Sprintf("key%d", i*13%37)
	}
	flts[5], flts[64] = math.NaN(), math.Inf(-1)
	return []*storage.Column{
		storage.NewIntColumn("i", ints),
		storage.NewFloatColumn("f", flts),
		storage.NewBoolColumn("b", bools),
		storage.NewStringColumn("s", strs),
	}
}

// TestLazyLevelMatchesStridedChain: a level copied on its first read
// holds, bit for bit, what the eager build held — the base halved by
// Strided(0, 2) once per level — and a string level shares the base's
// dictionary.
func TestLazyLevelMatchesStridedChain(t *testing.T) {
	for _, base := range lazyColumns(40000) {
		t.Run(base.Type().String(), func(t *testing.T) {
			s, err := BuildShared(base, 14)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < s.NumLevels(); i++ {
				if s.Built(i) {
					t.Fatalf("level %d was built before any read", i)
				}
			}
			h := s.Attach(vclock.New(), vtParams(), nil)
			want := base
			for i := 0; i < h.NumLevels(); i++ {
				l, err := h.Level(i)
				if err != nil {
					t.Fatal(err)
				}
				got := l.Col
				if got.Len() != want.Len() || got.Type() != want.Type() || got.Dict() != want.Dict() {
					t.Fatalf("level %d: %d %v values (dict %p), want %d %v (dict %p)",
						i, got.Len(), got.Type(), got.Dict(), want.Len(), want.Type(), want.Dict())
				}
				for k := 0; k < want.Len(); k++ {
					if got.Int(k) != want.Int(k) || math.Float64bits(got.Float(k)) != math.Float64bits(want.Float(k)) {
						t.Fatalf("level %d entry %d: %v, want %v", i, k, got.Value(k), want.Value(k))
					}
				}
				want = want.Strided(0, 2)
			}
		})
	}
}

// TestLazyLevelBuiltOnce: eight sessions whose first reads of one level
// race share one copy of it.
func TestLazyLevelBuiltOnce(t *testing.T) {
	s, err := BuildShared(lazyColumns(40000)[0], 14)
	if err != nil {
		t.Fatal(err)
	}
	const sessions, level = 8, 3
	cols := make([]*storage.Column, sessions)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range sessions {
		h := s.Attach(vclock.New(), vtParams(), nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			if _, _, err := h.ValueAt(100, level); err != nil {
				t.Error(err)
			}
			l, err := h.Level(level)
			if err != nil {
				t.Error(err)
				return
			}
			cols[i] = l.Col
		}()
	}
	start.Done()
	wg.Wait()
	for i, c := range cols {
		if c != cols[0] {
			t.Fatalf("session %d reads a different copy of level %d", i, level)
		}
	}
	for i := 1; i < s.NumLevels(); i++ {
		if s.Built(i) != (i == level) {
			t.Fatalf("level %d built = %v after reads of level %d only", i, s.Built(i), level)
		}
	}
}
