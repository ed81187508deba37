package datagen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	spec := Spec{N: 1000, Seed: 7, Min: 0, Max: 100}
	a := Floats(spec)
	b := Floats(spec)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	spec.Seed = 8
	c := Floats(spec)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestUniformBounds(t *testing.T) {
	vals := Floats(Spec{N: 5000, Seed: 1, Min: 10, Max: 20})
	for _, v := range vals {
		if v < 10 || v >= 20 {
			t.Fatalf("uniform value %v outside [10,20)", v)
		}
	}
}

func TestIntsRounds(t *testing.T) {
	spec := Spec{N: 1000, Seed: 3, Min: 0, Max: 10}
	floats, ints := Floats(spec), Ints(spec)
	for i, f := range floats {
		if want := int64(math.Round(f)); ints[i] != want {
			t.Fatalf("Ints[%d] = %d, want %d (round of %v)", i, ints[i], want, f)
		}
	}
}

// TestFloatsGolden pins the data dbtouch-serve serves by default (seed 42,
// values in [0, 1000)) on its first 1000 rows: the FNV-64a hash of each
// value's IEEE-754 bits, little-endian, in order.
func TestFloatsGolden(t *testing.T) {
	const want uint64 = 0xe9e85447db802f35
	h := fnv.New64a()
	var b [8]byte
	for _, v := range Floats(Spec{N: 1000, Seed: 42, Min: 0, Max: 1000}) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("Floats hash %#x, want %#x", got, want)
	}
}

func TestStringsCardinality(t *testing.T) {
	strs := Strings(1000, 4, 9)
	distinct := map[string]bool{}
	for _, s := range strs {
		distinct[s] = true
	}
	if len(distinct) > 4 {
		t.Fatalf("cardinality %d exceeds requested 4", len(distinct))
	}
}

func TestColumnsBuild(t *testing.T) {
	ic := IntColumn("i", Spec{N: 10, Seed: 1})
	fc := FloatColumn("f", Spec{N: 10, Seed: 1})
	if ic.Len() != 10 || fc.Len() != 10 {
		t.Fatal("column constructors wrong length")
	}
}

func TestPlantOutlierRegion(t *testing.T) {
	data := Floats(Spec{N: 10000, Seed: 2, Min: 0, Max: 100})
	baseline := append([]float64(nil), data...)
	p := Plant(data, OutlierRegion, 0.5, 0.05, 3)
	if p.Start != 5000 || p.End-p.Start != 500 {
		t.Fatalf("region = [%d,%d)", p.Start, p.End)
	}
	for i := p.Start; i < p.End; i++ {
		if data[i] <= baseline[i] {
			t.Fatalf("planted value at %d not raised", i)
		}
	}
	for _, i := range []int{0, 4999, 5500, 9999} {
		if data[i] != baseline[i] {
			t.Fatalf("unplanted value at %d changed", i)
		}
	}
}

func TestPlantLevelShiftExtendsToEnd(t *testing.T) {
	data := Floats(Spec{N: 1000, Seed: 2})
	p := Plant(data, LevelShift, 0.7, 0.01, 3)
	if p.End != 1000 {
		t.Fatalf("level shift End = %d, want 1000", p.End)
	}
}

func TestPlantSpikesAreExtreme(t *testing.T) {
	data := Floats(Spec{N: 10000, Seed: 2, Min: 0, Max: 100})
	p := Plant(data, Spike, 0.2, 0.1, 3)
	max := 0.0
	for i := p.Start; i < p.End; i++ {
		if data[i] > max {
			max = data[i]
		}
	}
	if max < 500 {
		t.Fatalf("spike max = %v, want extreme", max)
	}
}

func TestPlantCorrelatedBothColumns(t *testing.T) {
	a := Floats(Spec{N: 1000, Seed: 2, Min: 0, Max: 10})
	b := Floats(Spec{N: 1000, Seed: 4, Min: 0, Max: 10})
	a0, b0 := append([]float64(nil), a...), append([]float64(nil), b...)
	p := PlantCorrelated(a, b, 0.4, 0.1, 5)
	mid := p.Center()
	if a[mid] <= a0[mid] || b[mid] <= b0[mid] {
		t.Fatal("correlated bump missing from one column")
	}
}

func TestPatternPredicates(t *testing.T) {
	p := Pattern{Start: 100, End: 200}
	if !p.Contains(150) || p.Contains(200) || p.Contains(99) {
		t.Fatal("Contains boundaries wrong")
	}
	if !p.Overlaps(150, 160) || !p.Overlaps(0, 101) || p.Overlaps(200, 300) {
		t.Fatal("Overlaps boundaries wrong")
	}
	if p.Center() != 150 {
		t.Fatal("Center wrong")
	}
}

func TestPlantEmptyData(t *testing.T) {
	p := Plant(nil, OutlierRegion, 0.5, 0.1, 1)
	if p.Start != 0 || p.End != 0 {
		t.Fatalf("empty plant = %+v", p)
	}
}
