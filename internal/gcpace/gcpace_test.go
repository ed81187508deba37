package gcpace

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"
)

func TestPercentFor(t *testing.T) {
	const mib = 1 << 20
	for _, tc := range []struct {
		served, live uint64
		want         int
	}{
		{0, 0, maxPercent},
		{80 * mib, 85 * mib, 6},   // goal 80+2×5 = 90 MiB: 85 × 1.06
		{80 * mib, 81 * mib, 9},   // rest below minRest: goal 88 MiB
		{80 * mib, 200 * mib, 60}, // goal 80+2×120 = 320 MiB
		{10 * mib, 200 * mib, 95}, // goal 390 MiB
		{1 * mib, 200 * mib, 100}, // goal 399 MiB, capped
		{80 * mib, 40 * mib, 100}, // the data shrank: capped
		{1 << 40, 1<<40 + mib, 1}, // a huge served heap: never 0
	} {
		if got := percentFor(tc.served, tc.live); got != tc.want {
			t.Errorf("percentFor(%d MiB, %d MiB) = %d, want %d", tc.served/mib, tc.live/mib, got, tc.want)
		}
	}
}

// readMetric reads one runtime/metrics value.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestPacerBoundsHeap holds a 64 MiB pointer-free slab as the served data
// and churns 512 MiB of garbage over a 2 MiB working set. Under the pacer
// the heap never passes served + 4 × max(rest, minRest), where rest is
// the most the runtime ever found live beyond served — on a quiet host
// about the working set, so the heap stays within 16 MiB of the slab,
// where GOGC's default lets it reach twice the slab. (On a busy host a
// starved mark phase counts what the loop allocated meanwhile as live,
// and the bound follows that rest, as the pacer does.)
func TestPacerBoundsHeap(t *testing.T) {
	orig := int(readMetric("/gc/gogc:percent"))
	slab := make([]byte, 64<<20)
	for i := 0; i < len(slab); i += 4096 {
		slab[i] = 1
	}
	p := start()
	t.Cleanup(func() {
		p.stopped.Store(true)
		debug.SetGCPercent(orig)
	})
	served := p.served
	if served < 64<<20 {
		t.Fatalf("served %d bytes, want at least the 64 MiB slab", served)
	}
	cycles := readMetric("/gc/cycles/total:gc-cycles")
	var ring [32][]byte // 32 × 64 KiB: the 2 MiB working set
	var peak, live uint64
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/heap/live:bytes"}}
	for i := 0; i < 8192; i++ {
		ring[i%len(ring)] = make([]byte, 64<<10)
		metrics.Read(sample)
		peak = max(peak, sample[0].Value.Uint64())
		live = max(live, sample[1].Value.Uint64())
	}
	runtime.KeepAlive(slab)
	runtime.KeepAlive(&ring)
	rest := uint64(0)
	if live > served {
		rest = live - served
	}
	if bound := served + 4*max(rest, minRest); peak > bound {
		t.Fatalf("heap peaked at %d MiB, want ≤ %d MiB (served %d MiB, rest %d MiB)", peak>>20, bound>>20, served>>20, rest>>20)
	}
	if n := readMetric("/gc/cycles/total:gc-cycles") - cycles; n < 10 {
		t.Fatalf("%d collections over 512 MiB of garbage, want the pacer's many", n)
	}
	if pct := int(readMetric("/gc/gogc:percent")); pct >= maxPercent {
		t.Fatalf("GOGC is %d under the pacer, want below %d", pct, maxPercent)
	}
	t.Logf("served %d MiB, rest %d MiB, peak %d MiB, GOGC %d", served>>20, rest>>20, peak>>20, readMetric("/gc/gogc:percent"))
}

// TestStartOffUnderGOGC: with GOGC (or GOMEMLIMIT) in the environment
// Start leaves the collector as the runtime set it.
func TestStartOffUnderGOGC(t *testing.T) {
	for _, env := range []string{"GOGC", "GOMEMLIMIT"} {
		t.Setenv(env, "100")
		before := readMetric("/gc/gogc:percent")
		if Start() {
			t.Fatalf("%s set: Start paced the collector", env)
		}
		if after := readMetric("/gc/gogc:percent"); after != before {
			t.Fatalf("%s set: GOGC moved from %d to %d", env, before, after)
		}
	}
}
