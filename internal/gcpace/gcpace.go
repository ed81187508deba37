// Package gcpace paces the garbage collector of a server whose heap is
// mostly the data it loaded at start-up and serves for the rest of its
// life. GOGC sizes the next heap goal in proportion to the whole live
// heap, so a server holding 80 MB of columns lets 80 MB of garbage pile
// up before it collects — dbtouch-serve ran two collections in its whole
// life after loading, and its peak RSS was the loaded bytes plus the
// garbage of every request since. The pacer leaves the heap that is live
// once loading ends ("served") out of that budget: after every cycle it
// sets the percent so that the next goal is served + 2 × max(rest, 4 MiB),
// where rest is the live heap beyond served. It never raises the percent
// past 100, the default, and stays off when GOGC or GOMEMLIMIT is set.
package gcpace

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync/atomic"
)

const (
	// minRest is the least rest the goal allows for, so a server with
	// almost nothing beyond its data does not collect continuously.
	minRest = 4 << 20
	// maxPercent caps the percent at GOGC's default: the pacer only
	// ever collects sooner than the runtime would.
	maxPercent = 100
)

// Start collects once, takes the live heap as the served bytes, and
// paces every later cycle as the package comment describes. Call it when
// start-up has loaded what the process serves. It reports false, and
// does nothing, when GOGC or GOMEMLIMIT is set in the environment.
func Start() bool {
	if os.Getenv("GOGC") != "" || os.Getenv("GOMEMLIMIT") != "" {
		return false
	}
	start()
	return true
}

// pacer is the state the per-cycle hook carries.
type pacer struct {
	served  uint64
	percent int
	sample  [1]metrics.Sample
	stopped atomic.Bool
}

func start() *pacer {
	runtime.GC()
	p := &pacer{percent: -1}
	p.sample[0].Name = "/gc/heap/live:bytes"
	p.served = p.live()
	p.cycle()
	return p
}

// live reads the heap the last cycle marked live.
func (p *pacer) live() uint64 {
	metrics.Read(p.sample[:])
	return p.sample[0].Value.Uint64()
}

// sentinel is garbage from birth: its finalizer runs once the next cycle
// has found it, which is the pacer's per-cycle hook.
type sentinel struct{ p *pacer }

// cycle sets the percent for the cycle that just ended and arms the hook
// for the next one.
func (p *pacer) cycle() {
	if p.stopped.Load() {
		return
	}
	if pct := percentFor(p.served, p.live()); pct != p.percent {
		debug.SetGCPercent(pct)
		p.percent = pct
	}
	runtime.SetFinalizer(&sentinel{p}, func(s *sentinel) { s.p.cycle() })
}

// percentFor is the least GOGC percent that puts the goal, live × (1 +
// p/100), at or past served + 2 × max(rest, minRest), capped at
// maxPercent. The goal always exceeds live, so the percent is at least 1.
func percentFor(served, live uint64) int {
	if live == 0 {
		return maxPercent
	}
	rest := uint64(0)
	if live > served {
		rest = live - served
	}
	goal := served + 2*max(rest, minRest)
	return int(min((100*(goal-live)+live-1)/live, maxPercent))
}
