package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"dbtouch/internal/gesture"
	"dbtouch/internal/storage"
	"dbtouch/internal/touchos"
)

// revisitRegion slides back and forth over a narrow band of the object so
// the gesture-aware policy accumulates touch counts there.
func revisitRegion(k *Kernel, obj *Object, fromFrac, toFrac float64, passes int) {
	synth := gesture.Synth{}
	f := obj.View().Frame()
	yAt := func(frac float64) float64 { return f.Origin.Y + frac*f.Size.H }
	x := f.Origin.X + f.Size.W/2
	start := k.Clock().Now() + time.Millisecond
	events := synth.BackAndForth(
		touchos.Point{X: x, Y: yAt(fromFrac)},
		touchos.Point{X: x, Y: yAt(toFrac)},
		start, time.Second, passes,
	)
	k.Apply(events)
}

func TestHotRegionsDetectRevisits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseSamples = false // keep touches on base level where counting happens
	cfg.CachePolicy = PolicyGestureAware
	k, obj := testKernel(t, 100000, cfg)
	revisitRegion(k, obj, 0.4, 0.6, 3)
	regions := obj.HotRegions(2)
	if len(regions) == 0 {
		t.Fatal("no hot regions after heavy revisits")
	}
	top := regions[0]
	// The revisited band maps to tuples ≈[40000, 60000].
	if top.Hi < 40000 || top.Lo > 60000 {
		t.Fatalf("hot region [%d,%d) misses the revisited band", top.Lo, top.Hi)
	}
}

func TestHotRegionsEmptyWithoutTouches(t *testing.T) {
	k, obj := testKernel(t, 100000, DefaultConfig())
	_ = k
	if regions := obj.HotRegions(2); regions != nil {
		t.Fatalf("untouched object reported hot regions: %v", regions)
	}
}

func TestHotRegionsLocalizeUnderSampling(t *testing.T) {
	// Even when touches are served from coarse sample levels, the touch
	// histogram localizes the revisited band in base-tuple space.
	k, obj := testKernel(t, 1_000_000, DefaultConfig())
	revisitRegion(k, obj, 0.5, 0.75, 3)
	regions := obj.HotRegions(2)
	if len(regions) == 0 {
		t.Fatal("no hot regions")
	}
	top := regions[0]
	if top.Hi-top.Lo > 500_000 {
		t.Fatalf("hot region [%d,%d) not localized", top.Lo, top.Hi)
	}
	if top.Lo > 760_000 || top.Hi < 490_000 {
		t.Fatalf("hot region [%d,%d) misses the revisited band", top.Lo, top.Hi)
	}
}

func TestPromoteHotRegion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseSamples = false
	cfg.CachePolicy = PolicyGestureAware
	k, obj := testKernel(t, 100000, cfg)
	revisitRegion(k, obj, 0.4, 0.6, 3)

	promoted, err := k.PromoteHotRegion(obj, touchos.NewRect(6, 2, 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	if promoted.Rows() >= obj.Rows() {
		t.Fatalf("promoted region %d rows should be a subset of %d", promoted.Rows(), obj.Rows())
	}
	if promoted.Rows() == 0 {
		t.Fatal("promoted region empty")
	}
	// The promoted object inherits the source's actions and is
	// immediately explorable.
	if promoted.Actions().Mode != obj.Actions().Mode {
		t.Fatal("promoted object should inherit actions")
	}
	results := k.Apply(slideEvents(promoted, time.Second, k.Clock().Now()+time.Millisecond))
	if countResults(results, SummaryValue) == 0 {
		t.Fatal("promoted object not explorable")
	}
	if k.Counters().Get("cache.promotions") != 1 {
		t.Fatal("promotion counter missing")
	}
}

func TestPromoteHotRegionErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CachePolicy = PolicyGestureAware
	k, obj := testKernel(t, 1000, cfg)
	// No gestures yet: nothing hot.
	if _, err := k.PromoteHotRegion(obj, touchos.NewRect(6, 2, 2, 10)); err == nil {
		t.Fatal("promotion without hot regions should error")
	}
}

// mapHotRegions is the histogram HotRegions replaced: an unbounded map
// from bucket to count, bucketSize fixed at rows/512. It is the reference
// for static tables, where the bounded histogram never folds.
func mapHotRegions(rows int, touches []int, minTouches int) []HotRegion {
	size := max(rows/512, 1)
	buckets := make(map[int]int)
	for _, id := range touches {
		buckets[id/size]++
	}
	var hot []int
	for b, c := range buckets {
		if c >= minTouches {
			hot = append(hot, b)
		}
	}
	if len(hot) == 0 {
		return nil
	}
	sort.Ints(hot)
	var out []HotRegion
	for _, b := range hot {
		lo, hi := b*size, min((b+1)*size, rows)
		if n := len(out); n > 0 && lo <= out[n-1].Hi+size {
			out[n-1].Hi = hi
			out[n-1].Touches += buckets[b]
			continue
		}
		out = append(out, HotRegion{Lo: lo, Hi: hi, Touches: buckets[b]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Touches > out[j].Touches })
	return out
}

func TestHotRegionsMatchMapHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, rows := range []int{1, 300, 511, 512, 1000, 1023, 1024, 5000, 100_000} {
		_, obj := testKernel(t, rows, DefaultConfig())
		var touches []int
		for i := 0; i < 3000; i++ {
			// Mostly a hot band, some noise, so regions merge and split.
			id := rng.Intn(rows)
			if rng.Intn(3) > 0 {
				id = rows/3 + rng.Intn(max(rows/10, 1))
			}
			touches = append(touches, id)
			obj.recordTouch(id)
		}
		if len(obj.touchBuckets) > 1024 {
			t.Fatalf("rows %d: %d buckets on a static table", rows, len(obj.touchBuckets))
		}
		for _, minTouches := range []int{1, 2, 5, 40} {
			got, want := obj.HotRegions(minTouches), mapHotRegions(rows, touches, minTouches)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rows %d min %d: HotRegions = %v, map histogram %v", rows, minTouches, got, want)
			}
		}
	}
}

func TestTouchHistogramBoundedOnGrowingLiveTable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseSamples = false
	vals := make([]int64, 1000)
	tbl, err := storage.NewTable("ev", storage.NewIntColumn("v", vals))
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel(cfg)
	k.Catalog().RegisterLive(tbl)
	obj, err := k.CreateColumnObject(tbl.Snapshot().Matrix, 0, touchos.NewRect(2, 2, 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]storage.Value, 9950)
	for i := range rows {
		rows[i] = []storage.Value{storage.IntValue(int64(i))}
	}
	for tbl.Rows() < 200_000 {
		if _, err := tbl.AppendBatch(rows); err != nil {
			t.Fatal(err)
		}
		k.Apply(slideEvents(obj, 10*time.Second, k.Clock().Now()+time.Millisecond))
		if n := len(obj.touchBuckets); n > 1024 {
			t.Fatalf("at %d rows the touch histogram holds %d buckets", tbl.Rows(), n)
		}
	}
	// The coarsened histogram still spans the whole grown table.
	end := 0
	for _, r := range obj.HotRegions(1) {
		end = max(end, r.Hi)
	}
	if end < 190_000 {
		t.Fatalf("hot regions end at %d of %d rows", end, tbl.Rows())
	}
}
