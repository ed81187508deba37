package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/session"
	"dbtouch/internal/storage"
)

// Fixed server-side flags. They are part of the benchmark's definition:
// numbers compare only across runs that used the same ones.
var (
	// The gateway's breaker cycle is shortened so a failover probe's
	// restart is readmitted within about a second.
	gatewayHealthInterval = 200 * time.Millisecond
	gatewayOpenCooldown   = 500 * time.Millisecond
	gatewayFlags          = []string{"-health-interval", gatewayHealthInterval.String(), "-open-cooldown", gatewayOpenCooldown.String(), "-quiet"}
	// liveRetainRows bounds stream_ingest's live table. The table swings
	// between this and twice this (retention compacts when half is
	// stale); at ~400k rows/s a quarter million puts a cycle in every
	// 0.6 s, so every slice of the window sees steady state and peak memory does
	// not depend on how far the first fill got.
	liveRetainRows = 250_000
	// fleetBackends is the number of dbtouch-serve processes behind the
	// gateway. Session logs use the default compaction threshold and no
	// fsync (the product has none yet).
	fleetBackends = 3
)

// rotateEvery is how many performs a session serves before its client
// evicts it and opens a fresh one: log and checkpoint sizes stay bounded
// and open/evict are exercised.
const rotateEvery = 5000

// scale sizes a run. The full scale is the benchmark; the toy scale
// exists for the smoke test.
type scale struct {
	touchRows, scanRows int
	warmup              time.Duration
	coldStarts          int
	probeHistory        int
	probes              int
	resumeHistories     []int
	traceOps            map[string]int
	verifyOps           map[string]int
	// deadline bounds one workload, cold starts to traced pass.
	deadline time.Duration
}

var fullScale = scale{
	touchRows: 1_000_000, scanRows: 4_000_000,
	warmup: 500 * time.Millisecond, coldStarts: 5,
	probeHistory: 10_000, probes: 5,
	resumeHistories: []int{100, 1000, 10000},
	// The traced pass runs a fixed op count so counts repeat exactly:
	// scan ops cost ~20 ms on each of five twins, so two script passes of
	// them; the fleet runs long enough to cross one log compaction.
	traceOps:  map[string]int{wTouch: 2000, wScan: 64, wFleet: 2500, wStream: 400},
	verifyOps: map[string]int{wTouch: 2000, wScan: 40, wFleet: 2000, wStream: 400},
	deadline:  150 * time.Second,
}

// The toy fleet still traces 2500 ops, so that its log crosses one
// compaction and sessionlog.compact_us is exercised.
var toyScale = scale{
	touchRows: 50_000, scanRows: 50_000,
	warmup: 100 * time.Millisecond, coldStarts: 1,
	probeHistory: 200, probes: 2,
	resumeHistories: []int{100, 1000, 10000},
	traceOps:        map[string]int{wTouch: 300, wScan: 64, wFleet: 2500, wStream: 60},
	verifyOps:       map[string]int{wTouch: 300, wScan: 40, wFleet: 300, wStream: 60},
	deadline:        time.Minute,
}

// inputs is everything one workload run generated from the seed.
type inputs struct {
	workload string
	sc       scale
	dir      string
	clients  int
	static   *table
	scripts  []*gestureScript
	controls []*control // in-process ground truth, one per client
}

// live reports whether the workload explores the appendable table.
func (in *inputs) live() bool { return in.workload == wStream }

// fleet reports whether the workload runs behind the gateway.
func (in *inputs) fleet() bool { return in.workload == wFleet }

// generate builds the workload's tables and per-client scripts.
func generate(workload string, seed int64, sc scale, dir string, clients int) (*inputs, error) {
	in := &inputs{workload: workload, sc: sc, dir: dir, clients: clients}
	name, rows, schema, script := "t", sc.touchRows, "v:FLOAT", touchScript
	switch workload {
	case wTouch, wFleet:
	case wScan:
		name, rows, schema, script = "big", sc.scanRows, "i:INT,f:FLOAT,s:STRING", scanScript
	case wStream:
		// One connection alternates appends and slides; the other holds
		// the stream. The static table is a placeholder the server wants.
		in.clients, rows, script = 1, 1024, ingestScript
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	var err error
	if in.static, err = genTable(dir, name, rows, schema, seed); err != nil {
		return nil, err
	}
	for c := 0; c < in.clients; c++ {
		gs, err := script(seed, c)
		if err != nil {
			return nil, err
		}
		in.scripts = append(in.scripts, gs)
	}
	return in, nil
}

// newManager builds an in-process session manager over the same data
// the servers load: the control for output verification and the twins of
// the traced pass.
func (in *inputs) newManager() (*session.Manager, error) {
	mgr := session.NewManager(core.DefaultConfig())
	mgr.Catalog().Register(in.static.matrix)
	if in.live() {
		t, err := newLiveTable()
		if err != nil {
			return nil, err
		}
		mgr.Catalog().RegisterLive(t)
	}
	return mgr, nil
}

// newLiveTable mirrors dbtouch-serve -live liveSpec -retain-rows.
func newLiveTable() (*storage.Table, error) {
	t, err := storage.NewTable(liveTable,
		storage.NewIntColumn("ts", nil), storage.NewStringColumn("key", nil), storage.NewIntColumn("value", nil))
	if err != nil {
		return nil, err
	}
	if err := t.SetRetention(storage.Retention{MaxRows: liveRetainRows}); err != nil {
		return nil, err
	}
	return t, nil
}

// topology is one started set of server-side processes.
type topology struct {
	procs    []*proc // everything whose CPU and memory count as server-side
	backends []*proc
	gateway  *proc
	front    string // the address clients talk to
}

// bins are the built server binaries.
type bins struct{ serve, gateway string }

// startTopology spawns the workload's servers and waits until all are
// ready. Each call uses fresh ports and, for the fleet, a fresh session
// directory.
func (in *inputs) startTopology(b bins, tag string) (*topology, error) {
	tp := &topology{}
	serveArgs := []string{"-csv", in.static.csv, "-table", in.static.name}
	if in.live() {
		serveArgs = append(serveArgs, "-live", liveSpec, "-retain-rows", fmt.Sprint(liveRetainRows))
	}
	n := 1
	if in.fleet() {
		n = fleetBackends
		logDir := filepath.Join(in.dir, "sessions-"+tag)
		if err := os.MkdirAll(logDir, 0o755); err != nil {
			return nil, err
		}
		serveArgs = append(serveArgs, "-session-dir", logDir)
	}
	for i := 0; i < n; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		p := &proc{
			name: fmt.Sprintf("serve-%d", i), bin: b.serve, addr: addr,
			args: append([]string{"-addr", addr}, serveArgs...),
			log:  filepath.Join(in.dir, fmt.Sprintf("serve-%s-%d.log", tag, i)),
		}
		if err := p.start(); err != nil {
			tp.stop()
			return nil, err
		}
		tp.backends = append(tp.backends, p)
		tp.procs = append(tp.procs, p)
	}
	tp.front = tp.backends[0].addr
	if in.fleet() {
		addr, err := freeAddr()
		if err != nil {
			tp.stop()
			return nil, err
		}
		list := ""
		for i, p := range tp.backends {
			if i > 0 {
				list += ","
			}
			list += p.base()
		}
		tp.gateway = &proc{
			name: "gateway", bin: b.gateway, addr: addr,
			args: append([]string{"-addr", addr, "-backends", list}, gatewayFlags...),
			log:  filepath.Join(in.dir, fmt.Sprintf("gateway-%s.log", tag)),
		}
		if err := tp.gateway.start(); err != nil {
			tp.stop()
			return nil, err
		}
		tp.procs = append(tp.procs, tp.gateway)
		tp.front = addr
	}
	for _, p := range tp.procs {
		if err := p.waitReady(60 * time.Second); err != nil {
			tp.stop()
			return nil, err
		}
	}
	return tp, nil
}

// stop kills every process of the topology. Callers close their stream
// clients first: a /stream handler has no server-side stop, so stopping
// a server under an attached stream would otherwise wait on it.
func (tp *topology) stop() {
	for _, p := range tp.procs {
		p.kill()
	}
}

// cpuTime sums utime+stime over the server-side processes.
func (tp *topology) cpuTime() time.Duration {
	var d time.Duration
	for _, p := range tp.procs {
		d += p.cpuTime()
	}
	return d
}

// peakRSS sums VmHWM over the server-side processes.
func (tp *topology) peakRSS() int64 {
	var n int64
	for _, p := range tp.procs {
		n += p.peakRSS()
	}
	return n
}
