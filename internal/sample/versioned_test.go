package sample

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"dbtouch/internal/iomodel"
	"dbtouch/internal/storage"
)

// The versioned-chain contract: a Shared served incrementally from the
// chain must be indistinguishable from one built from scratch over the
// same frozen prefix — the same levels, each holding the same column
// entry for entry. These tests drive the chain through odd-sized append
// epochs and differential every epoch against BuildShared.

func vtParams() iomodel.Params {
	return iomodel.Params{BlockValues: 8, ColdLatency: time.Millisecond, WarmLatency: time.Microsecond}
}

// diffShared asserts got (from the chain) and want (frozen BuildShared)
// hold the same levels: the same strides and, level by level, columns of
// the same type and length whose values agree bit for bit.
func diffShared(t *testing.T, label string, got, want *Shared) {
	t.Helper()
	if got.NumLevels() != want.NumLevels() {
		t.Fatalf("%s: chain has %d levels, frozen build %d", label, got.NumLevels(), want.NumLevels())
	}
	for lvl := range got.levels {
		gl, wl := got.levels[lvl], want.levels[lvl]
		gc, wc := gl.column(), wl.column()
		if gl.stride != wl.stride || gc.Type() != wc.Type() || gc.Len() != wc.Len() {
			t.Fatalf("%s level %d: chain stride/type/len %d/%v/%d, frozen %d/%v/%d",
				label, lvl, gl.stride, gc.Type(), gc.Len(), wl.stride, wc.Type(), wc.Len())
		}
		for k := 0; k < gc.Len(); k++ {
			if g, w := gc.Value(k), wc.Value(k); !sameValue(g, w) {
				t.Fatalf("%s level %d entry %d: chain %+v, frozen %+v", label, lvl, k, g, w)
			}
		}
	}
}

// sameValue reports whether a and b are the same cell: every field
// equal, floats by their bits (-0 and +0 differ, NaN payloads count).
func sameValue(a, b storage.Value) bool {
	return a.Type == b.Type && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.B == b.B && a.S == b.S
}

// batchSizes are deliberately odd and ragged so level lengths, block
// boundaries, and the minLen level-spawn threshold are all crossed
// mid-batch.
var batchSizes = []int{130, 1, 7, 255, 64, 3, 511, 129, 1000, 17}

func TestVersionedMatchesFrozenBuildInt(t *testing.T) {
	// Values beyond 2^53 would not survive a detour through float64.
	big := int64(1) << 60
	var vals []int64
	full := storage.NewEmptyColumn("v", storage.Int64)
	v := NewVersioned(4, 0)
	for bi, bs := range batchSizes {
		for i := 0; i < bs; i++ {
			x := int64(len(vals))
			if x%97 == 0 {
				x = big + x
			}
			vals = append(vals, x)
			full.Append(storage.IntValue(x))
		}
		base, err := full.Prefix(len(vals))
		if err != nil {
			t.Fatalf("Prefix: %v", err)
		}
		got, err := v.ForSnapshot(0, base)
		if err != nil {
			t.Fatalf("ForSnapshot: %v", err)
		}
		want, err := BuildShared(base, 4)
		if err != nil {
			t.Fatalf("BuildShared: %v", err)
		}
		diffShared(t, fmt.Sprintf("int batch %d (rows %d)", bi, len(vals)), got, want)
		// Level 0 must be the snapshot's own column pointer: the fused
		// slide path relies on that identity.
		if got.levels[0].col != base {
			t.Fatalf("batch %d: chain level 0 is not the snapshot column", bi)
		}
	}
}

func TestVersionedMatchesFrozenBuildFloat(t *testing.T) {
	for _, specials := range []bool{false, true} {
		t.Run(fmt.Sprintf("specials=%v", specials), func(t *testing.T) { versionedFloatDiff(t, specials) })
	}
}

// versionedFloatDiff drives a float chain against the frozen build, over
// floats of wildly mixed magnitudes and signs. With specials, NaN and
// infinities land in the first batch and then sparsely, so the levels
// sample them at some strides and skip them at others.
func versionedFloatDiff(t *testing.T, specials bool) {
	full := storage.NewEmptyColumn("v", storage.Float64)
	n := 0
	v := NewVersioned(3, 0)
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for bi, bs := range batchSizes {
		for i := 0; i < bs; i++ {
			x := float64(n) * 1.37
			if n%13 == 0 {
				x *= 1e15
			}
			if n%7 == 0 {
				x = -x
			}
			if specials && (n == 40 || n%331 == 17) {
				x = nonFinite[n%3]
			}
			full.Append(storage.FloatValue(x))
			n++
		}
		base, err := full.Prefix(n)
		if err != nil {
			t.Fatalf("Prefix: %v", err)
		}
		got, err := v.ForSnapshot(0, base)
		if err != nil {
			t.Fatalf("ForSnapshot: %v", err)
		}
		want, err := BuildShared(base, 3)
		if err != nil {
			t.Fatalf("BuildShared: %v", err)
		}
		diffShared(t, fmt.Sprintf("float batch %d (rows %d)", bi, n), got, want)
	}
}

func TestVersionedMatchesFrozenBuildString(t *testing.T) {
	full := storage.NewEmptyColumn("v", storage.String)
	n := 0
	v := NewVersioned(2, 0)
	for bi, bs := range batchSizes[:6] {
		for i := 0; i < bs; i++ {
			full.Append(storage.StringValue(fmt.Sprintf("key%d", n%23)))
			n++
		}
		base, err := full.Prefix(n)
		if err != nil {
			t.Fatalf("Prefix: %v", err)
		}
		got, err := v.ForSnapshot(0, base)
		if err != nil {
			t.Fatalf("ForSnapshot: %v", err)
		}
		want, err := BuildShared(base, 2)
		if err != nil {
			t.Fatalf("BuildShared: %v", err)
		}
		diffShared(t, fmt.Sprintf("string batch %d (rows %d)", bi, n), got, want)
	}
}

// TestVersionedMatchesFrozenBuildBool covers the last integer-backed
// type.
func TestVersionedMatchesFrozenBuildBool(t *testing.T) {
	full := storage.NewEmptyColumn("v", storage.Bool)
	n := 0
	v := NewVersioned(3, 0)
	for bi, bs := range batchSizes {
		for i := 0; i < bs; i++ {
			full.Append(storage.BoolValue(n%3 == 0 || n%7 == 0))
			n++
		}
		base, err := full.Prefix(n)
		if err != nil {
			t.Fatalf("Prefix: %v", err)
		}
		got, err := v.ForSnapshot(0, base)
		if err != nil {
			t.Fatalf("ForSnapshot: %v", err)
		}
		want, err := BuildShared(base, 3)
		if err != nil {
			t.Fatalf("BuildShared: %v", err)
		}
		diffShared(t, fmt.Sprintf("bool batch %d (rows %d)", bi, n), got, want)
	}
}

// TestVersionedCacheIdentity: the same (gen, rows) version resolves to
// the same *Shared (sessions pinning one snapshot share statistics), and
// prune drops what the keep-set omits without harming correctness.
func TestVersionedCacheIdentity(t *testing.T) {
	vals := make([]int64, 300)
	for i := range vals {
		vals[i] = int64(i)
	}
	full := storage.NewIntColumn("v", vals)
	v := NewVersioned(2, 0)
	base, _ := full.Prefix(200)
	s1, err := v.ForSnapshot(0, base)
	if err != nil {
		t.Fatalf("ForSnapshot: %v", err)
	}
	s2, err := v.ForSnapshot(0, base)
	if err != nil {
		t.Fatalf("ForSnapshot: %v", err)
	}
	if s1 != s2 {
		t.Fatal("same version returned distinct Shareds")
	}
	base2, _ := full.Prefix(300)
	if _, err := v.ForSnapshot(0, base2); err != nil {
		t.Fatalf("ForSnapshot: %v", err)
	}
	if v.cachedVersions() != 2 {
		t.Fatalf("cached %d versions, want 2", v.cachedVersions())
	}
	v.prune(map[verKey]bool{{gen: 0, rows: 300}: true})
	if v.cachedVersions() != 1 {
		t.Fatalf("cached %d versions after prune, want 1", v.cachedVersions())
	}
	// The pruned version rebuilds on demand, correctly.
	s3, err := v.ForSnapshot(0, base)
	if err != nil {
		t.Fatalf("ForSnapshot after prune: %v", err)
	}
	want, _ := BuildShared(base, 2)
	diffShared(t, "post-prune rebuild", s3, want)
}

// TestVersionedGenerationChange: a compaction bumps the generation and
// rebases positions — the chain must restart its tails for the new gen
// and serve older-gen pins via one-off frozen builds, both correct.
func TestVersionedGenerationChange(t *testing.T) {
	vals := make([]int64, 500)
	for i := range vals {
		vals[i] = int64(i * 3)
	}
	full := storage.NewIntColumn("v", vals)
	v := NewVersioned(2, 0)
	oldBase, _ := full.Prefix(400)
	if _, err := v.ForSnapshot(0, oldBase); err != nil {
		t.Fatalf("ForSnapshot gen 0: %v", err)
	}
	// Compaction: survivors are rows 200.. of the old array, rebased to 0.
	surv := make([]int64, 300)
	copy(surv, vals[200:])
	compacted := storage.NewIntColumn("v", surv)
	nb, _ := compacted.Prefix(300)
	got, err := v.ForSnapshot(1, nb)
	if err != nil {
		t.Fatalf("ForSnapshot gen 1: %v", err)
	}
	want, _ := BuildShared(nb, 2)
	diffShared(t, "post-compaction gen 1", got, want)
	// A session still pinned to the pre-compaction snapshot gets correct
	// stats through the rebuild path.
	gotOld, err := v.ForSnapshot(0, oldBase)
	if err != nil {
		t.Fatalf("ForSnapshot old gen after compaction: %v", err)
	}
	wantOld, _ := BuildShared(oldBase, 2)
	diffShared(t, "stale-gen pin", gotOld, wantOld)
}

// TestVersionedMatchesFrozenBuildAcrossCompactions drives the chain the
// way a served table does — a real storage.Table under a row cap,
// batches landing column-wise, tails reserved per extension and restarted
// at every compaction — and differentials every published version of an
// int, a float and a string column against BuildShared, through three
// compactions.
func TestVersionedMatchesFrozenBuildAcrossCompactions(t *testing.T) {
	tb, err := storage.NewTable("live",
		storage.NewEmptyColumn("i", storage.Int64),
		storage.NewEmptyColumn("f", storage.Float64),
		storage.NewEmptyColumn("s", storage.String),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.SetRetention(storage.Retention{MaxRows: 1300}); err != nil {
		t.Fatal(err)
	}
	chains := []*Versioned{NewVersioned(4, 0), NewVersioned(4, 0), NewVersioned(4, 0)}
	n := 0
	for bi := 0; tb.Gen() < 3; bi++ {
		rows := make([][]storage.Value, batchSizes[bi%len(batchSizes)])
		for r := range rows {
			f := float64(n) * 1.37
			if n%13 == 0 {
				f *= -1e15
			}
			rows[r] = []storage.Value{storage.IntValue(int64(n) + int64(n%97)<<52), storage.FloatValue(f), storage.StringValue(fmt.Sprintf("key%d", n%23))}
			n++
		}
		snap, err := tb.AppendBatch(rows)
		if err != nil {
			t.Fatal(err)
		}
		for c, chain := range chains {
			base, err := snap.Matrix.Column(c)
			if err != nil {
				t.Fatal(err)
			}
			got, err := chain.ForSnapshot(snap.Gen, base)
			if err != nil {
				t.Fatalf("ForSnapshot: %v", err)
			}
			want, err := BuildShared(base, 4)
			if err != nil {
				t.Fatalf("BuildShared: %v", err)
			}
			diffShared(t, fmt.Sprintf("%s batch %d (gen %d, rows %d)", base.Name(), bi, snap.Gen, snap.Rows), got, want)
		}
	}
}

// fuzzFloats are the float values a fuzz byte below len(fuzzFloats)
// names: NaN, both infinities, both zeros, 1e16, subnormals, and
// magnitudes far enough apart that summation order would show.
var fuzzFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1e16, -1e16, 5e-324, -0x1p-1040, 1, 0.1, 1e300, -1e300,
}

// fuzzTypes are the column types the fuzz kind byte picks from.
var fuzzTypes = []storage.Type{storage.Int64, storage.Float64, storage.String, storage.Bool}

// fuzzValue maps one fuzz byte to a cell of typ.
func fuzzValue(typ storage.Type, b byte) storage.Value {
	switch typ {
	case storage.Float64:
		if int(b) < len(fuzzFloats) {
			return storage.FloatValue(fuzzFloats[b])
		}
		x := float64(int8(b)) * 1.37
		if b%5 == 0 {
			x *= 1e15
		}
		return storage.FloatValue(x)
	case storage.Int64:
		// Shifts up to 54 bits put values past 2^53, where a float64
		// detour would round them.
		return storage.IntValue(int64(int8(b)) << (b % 4 * 18))
	case storage.Bool:
		return storage.BoolValue(b&1 == 1)
	default:
		return storage.StringValue(fmt.Sprintf("key%d", b%23))
	}
}

// splitBytes encodes batch sizes the way FuzzVersionedMatchesFrozen reads
// them: two little-endian bytes per batch, holding size-1.
func splitBytes(sizes []int) []byte {
	out := make([]byte, 0, 2*len(sizes))
	for _, n := range sizes {
		out = append(out, byte(n-1), byte((n-1)>>8))
	}
	return out
}

// FuzzVersionedMatchesFrozen drives one live column through ragged
// appends and at most one compaction, and holds every version the chain
// publishes to a frozen BuildShared over the same prefix, bit for bit
// (diffShared). The inputs choose the column type and depth (kind), the
// row count, the values (vals, cycled), the batch sizes (splits: two
// bytes each, cycled) and the compaction (compact: 0 for none, else the
// row count after which the oldest half of the rows is dropped). After
// the compaction, a pin on the last pre-compaction version is checked
// too, through the chain's stale-generation rebuild.
func FuzzVersionedMatchesFrozen(f *testing.F) {
	float4 := uint8(1 | 4<<2) // float column, four levels
	f.Add(float4, uint16(2117), uint16(0), splitBytes(batchSizes), []byte{200, 13, 5, 1, 40, 77, 150, 9})
	f.Add(uint8(0|4<<2), uint16(2117), uint16(1300), splitBytes(batchSizes), []byte{255, 1, 130, 7, 64, 201})
	f.Add(uint8(2|2<<2), uint16(900), uint16(500), splitBytes(batchSizes), []byte{0, 1, 2, 3, 4, 5, 6})
	f.Add(uint8(3|3<<2), uint16(2117), uint16(700), splitBytes(batchSizes), []byte{1, 0, 0, 1, 1})
	// The first special lands mid-level.
	late := append(bytes.Repeat([]byte{9, 200, 77}, 40), 0, 2, 1)
	f.Add(float4, uint16(2117), uint16(0), splitBytes(batchSizes), late)
	// 4 096 rows of 1.0 after one 1e16.
	ones := append([]byte{5}, bytes.Repeat([]byte{9}, 4095)...)
	f.Add(float4, uint16(4096), uint16(0), splitBytes([]int{4096}), ones)
	f.Add(float4, uint16(4096), uint16(3000), splitBytes(batchSizes), ones)
	f.Fuzz(func(t *testing.T, kind uint8, rows, compact uint16, splits, vals []byte) {
		n := int(rows) % 4097
		if n == 0 || len(vals) == 0 {
			return
		}
		typ := fuzzTypes[kind%4]
		levels := int(kind>>2) % 6
		var sizes []int
		for i := 0; i+1 < len(splits); i += 2 {
			sizes = append(sizes, 1+(int(splits[i])|int(splits[i+1])<<8)%1024)
		}
		if len(sizes) == 0 {
			sizes = []int{n}
		}
		chain := NewVersioned(levels, 0)
		// publish checks one version the chain serves against the
		// frozen build of the same column.
		publish := func(gen uint64, base *storage.Column) {
			got, err := chain.ForSnapshot(gen, base)
			if err != nil {
				t.Fatal(err)
			}
			want, err := BuildShared(base, levels)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%v gen %d rows %d", typ, gen, base.Len())
			diffShared(t, label, got, want)
		}
		full := storage.NewEmptyColumn("v", typ)
		var gen uint64
		for i, bi := 0, 0; i < n; bi++ {
			for end := min(n, i+sizes[bi%len(sizes)]); i < end; i++ {
				full.Append(fuzzValue(typ, vals[i%len(vals)]))
			}
			base, err := full.Prefix(full.Len())
			if err != nil {
				t.Fatal(err)
			}
			publish(gen, base)
			if gen == 0 && compact != 0 && i >= int(compact) && base.Len() > 1 {
				// Compaction keeps the newest half, rebased to row 0,
				// under a new generation; a reader still pinned to the
				// last old version is served too.
				gen = 1
				full = storage.NewEmptyColumn("v", typ)
				for k := base.Len() / 2; k < base.Len(); k++ {
					full.Append(base.Value(k))
				}
				kept, err := full.Prefix(full.Len())
				if err != nil {
					t.Fatal(err)
				}
				publish(gen, kept)
				publish(0, base)
			}
		}
	})
}
