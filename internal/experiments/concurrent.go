package experiments

import (
	"fmt"
	"sync"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/gesture"
	"dbtouch/internal/metrics"
	"dbtouch/internal/session"
	"dbtouch/internal/storage"
	"dbtouch/internal/touchos"
)

// ConcurrentSessionsResult reports one session-count data point of the
// concurrency experiment.
type ConcurrentSessionsResult struct {
	// Sessions is how many sessions ran the script.
	Sessions int
	// Touches is the total number of touches handled across sessions.
	Touches int64
	// VirtualPerSession is each session's own elapsed virtual time (every
	// session runs the identical script, so the per-session timelines are
	// identical).
	VirtualPerSession time.Duration
	// Wall is the host wall-clock time for the whole group.
	Wall time.Duration
	// AggThroughput is the aggregate gesture throughput: touches handled
	// per second of virtual session time, summed across sessions. Because
	// every session owns an independent virtual clock, this is linear in
	// the session count *by construction* — it states that sessions do
	// not interfere on the virtual-time axis (no cross-session charging),
	// not that they execute in parallel. Contention regressions show up
	// in WallThroughput and Wall instead.
	AggThroughput float64
	// WallThroughput is touches handled per second of host wall-clock
	// time for the whole group — the metric that degrades if a shared
	// lock serializes the span path (and that scales with real cores).
	WallThroughput float64
	// Streams holds each session's full result stream in session order,
	// for equivalence checks against sequential execution.
	Streams [][]core.Result
}

// concurrentScript synthesizes the standard multi-user workload: three
// slides of varying speed and range over the shared column object,
// identical for every session.
func concurrentScript() [][]touchos.TouchEvent {
	var synth gesture.Synth
	x := 3.0
	yAt := func(frac float64) float64 { return 2.02 + frac*(10.0-0.04) }
	var batches [][]touchos.TouchEvent
	cur := time.Duration(0)
	for _, leg := range []struct {
		from, to float64
		dur      time.Duration
	}{
		{0, 1, 1 * time.Second},
		{1, 0.4, 700 * time.Millisecond},
		{0.4, 0.9, 1500 * time.Millisecond},
	} {
		batches = append(batches, synth.Slide(
			touchos.Point{X: x, Y: yAt(leg.from)},
			touchos.Point{X: x, Y: yAt(leg.to)},
			cur, leg.dur,
		))
		cur += leg.dur + 2*time.Second
	}
	return batches
}

// SessionBench is a reusable fixture for the concurrency experiment: the
// manager, the table and the shared sample hierarchy are built once, so
// repeated Run calls (benchmark iterations) time only session creation
// and gesture execution, not data generation.
type SessionBench struct {
	mgr    *session.Manager
	script [][]touchos.TouchEvent
	runID  int
}

// NewSessionBench builds the fixture over one shared table of rows
// tuples.
func NewSessionBench(rows int) *SessionBench {
	mgr := session.NewManager(core.DefaultConfig())
	data := make([]int64, rows)
	for i := range data {
		data[i] = int64(i % 1009)
	}
	mx, err := storage.NewMatrix("t", storage.NewIntColumn("v", data))
	if err != nil {
		panic(err)
	}
	mgr.Catalog().Register(mx)
	return &SessionBench{mgr: mgr, script: concurrentScript()}
}

// Close tears the fixture down.
func (b *SessionBench) Close() { b.mgr.Close() }

// Run executes the standard script on n sessions — one goroutine per
// session when concurrent, else session by session on the calling
// goroutine — and evicts them afterwards, so the fixture can be reused.
func (b *SessionBench) Run(n int, concurrent bool) ConcurrentSessionsResult {
	b.runID++
	sessions := make([]*session.Session, n)
	streams := make([][]core.Result, n)
	for i := range sessions {
		s, err := b.mgr.Create(fmt.Sprintf("run%d-user%d", b.runID, i))
		if err != nil {
			panic(err)
		}
		obj, err := s.CreateColumnObject("t", "v", touchos.NewRect(2, 2, 2, 10))
		if err != nil {
			panic(err)
		}
		obj.SetActions(core.DefaultActions())
		i := i
		s.OnResult(func(r core.Result) { streams[i] = append(streams[i], r) })
		sessions[i] = s
	}

	runScript := func(s *session.Session) {
		for _, batch := range b.script {
			if _, err := s.Apply(batch); err != nil {
				panic(err)
			}
		}
	}
	start := time.Now()
	if concurrent {
		var wg sync.WaitGroup
		for _, s := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runScript(s)
			}()
		}
		wg.Wait()
	} else {
		for _, s := range sessions {
			runScript(s)
		}
	}
	wall := time.Since(start)

	res := ConcurrentSessionsResult{Sessions: n, Wall: wall, Streams: streams}
	for _, s := range sessions {
		res.Touches += s.Kernel().Counters().Get("touch.handled")
		res.VirtualPerSession = s.Kernel().Clock().Now()
	}
	if v := res.VirtualPerSession.Seconds(); v > 0 {
		res.AggThroughput = float64(res.Touches) / v
	}
	if w := wall.Seconds(); w > 0 {
		res.WallThroughput = float64(res.Touches) / w
	}
	for _, s := range sessions {
		b.mgr.Evict(s.ID())
	}
	return res
}

// ConcurrentSessions sweeps the session count over one shared table: the
// many-users workload of the ROADMAP north star (and of ICEBOAT-style
// interactive analytics deployments). The printed table shows aggregate
// touch throughput growing with the session count while each session's
// own virtual timeline stays identical — concurrency without
// interference.
func ConcurrentSessions(s Scale) *metrics.Table {
	t := &metrics.Table{Header: []string{
		"sessions", "touches-total", "virtual-per-session", "agg-touches-per-vsec", "v-speedup", "wall", "touches-per-wallsec",
	}}
	b := NewSessionBench(s.Rows)
	defer b.Close()
	var base float64
	for _, n := range []int{1, 2, 4, 8} {
		r := b.Run(n, true)
		if n == 1 {
			base = r.AggThroughput
		}
		speedup := 0.0
		if base > 0 {
			speedup = r.AggThroughput / base
		}
		t.AddRow(
			fmt.Sprint(n),
			fmt.Sprint(r.Touches),
			r.VirtualPerSession.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", r.AggThroughput),
			fmt.Sprintf("%.2fx", speedup),
			r.Wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.WallThroughput),
		)
	}
	return t
}
