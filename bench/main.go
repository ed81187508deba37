// Command bench is the repository's wire-level benchmark. It builds the
// real dbtouch-serve and dbtouch-gateway binaries, generates every input
// from a seed, replays recorded gesture sessions over the wire against
// them, and reports what a user feels (end-to-end metrics, tracing off)
// next to where the time goes (per-layer metrics from a traced
// in-process pass). See README.md.
//
//	go run -C bench . -seed 1                     all workloads, every metric
//	go run -C bench . -workload touch_direct -seed 1 -seconds 15 -trace 0
//	go run -C bench . -compare out/a.json out/b.json
//	go run -C bench . -aa                         two sets of the same tree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// report is one full run: every workload, stamped with its host.
type report struct {
	Host      hostStamp `json:"host"`
	UnixTime  int64     `json:"unix_time"`
	Workloads []*result `json:"workloads"`
}

// hardDeadline bounds the whole command in driver mode, where a run must
// end within 180 s: the backstop behind each workload's own deadline
// (scale.deadline), for a hang that killing the servers does not release.
const hardDeadline = 170 * time.Second

func main() {
	if os.Getenv(roleEnv) == roleReference {
		os.Exit(referenceServer(os.Args[1]))
	}
	os.Exit(realMain())
}

func realMain() (code int) {
	workload := flag.String("workload", "", "run one workload and print one JSON result line (driver mode); empty runs all")
	seed := flag.Int64("seed", 1, "input seed: same seed, same tables and scripts")
	seconds := flag.Float64("seconds", driverSeconds, "measured window per workload")
	trace := flag.Int("trace", 0, "driver mode: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	compare := flag.Bool("compare", false, "compare two report files: -compare BASE.json NEW.json")
	aa := flag.Bool("aa", false, "run two full sets of this tree and compare them against the bounds")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as the tables in metrics.go define it")
	flag.Parse()

	if *manifest {
		return printManifest()
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants BASE.json NEW.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}

	// Children die with us on every path out; deferred calls run while
	// panicking too. They sit in their own process groups, so a signal
	// aimed at us has to be passed on by hand.
	defer killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(1)
	}()

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	outDir := "out"
	binDir, err := filepath.Abs(filepath.Join(outDir, "bin"))
	if err == nil {
		err = os.MkdirAll(binDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var b bins
	if b.serve, b.gateway, err = buildServers(root, binDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := confine(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	opts := runOpts{seed: *seed, seconds: *seconds, sc: fullScale, clients: clientCount(), bins: b, outDir: outDir}

	if *workload != "" {
		time.AfterFunc(hardDeadline, func() {
			fmt.Fprintln(os.Stderr, "bench: hard deadline reached; killing servers")
			killAll()
			os.Exit(1)
		})
		opts.workload, opts.layers = *workload, *trace != 0
		return driverRun(opts)
	}

	host := stampHost(root, *seed)
	if *aa {
		a, codeA := fullRun(opts, host)
		bb, codeB := fullRun(opts, host)
		if codeA != 0 || codeB != 0 {
			return 1
		}
		pa, pb := filepath.Join(outDir, "aa-1.json"), filepath.Join(outDir, "aa-2.json")
		if err := writeJSON(pa, a); err == nil {
			err = writeJSON(pb, bb)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return compareReports(a, bb, true)
	}
	rep, code := fullRun(opts, host)
	if err := writeJSON(filepath.Join(outDir, "result.json"), rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if code == 0 {
		if err := appendHistory("history", rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// confinedEnv marks a benchmark process that already runs on one CPU, and
// names that CPU.
const confinedEnv = "DBTOUCH_BENCH_CONFINED"

// confine restarts the benchmark confined to one CPU, the lowest it may
// run on; every server it spawns inherits that. On the shared 2-vCPU
// reference VM a wake-up across vCPUs costs more than the request it
// carries (a tap reads 190 us with client and server on two vCPUs, 85 us
// on one) and that cost swings with the neighbours; on one CPU client and
// servers hand over by a context switch, nothing idles, and what is left
// of the host's noise the reference load tracks. The Go runtimes of the
// benchmark and the servers see a one-CPU machine, so C is 1. The servers
// are built first, on every CPU.
func confine() error {
	if os.Getenv(confinedEnv) != "" {
		return nil
	}
	runtime.LockOSThread() // the mask set below is this thread's; exec keeps it
	var mask [128]byte
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, uintptr(len(mask)), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	lowest := -1
	for i := 0; i < int(n)*8 && lowest < 0; i++ {
		if mask[i/8]&(1<<(i%8)) != 0 {
			lowest = i
		}
	}
	if lowest < 0 {
		return fmt.Errorf("sched_getaffinity: empty CPU mask")
	}
	mask = [128]byte{}
	mask[lowest/8] = 1 << (lowest % 8)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, uintptr(len(mask)), uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, append(os.Environ(), fmt.Sprintf("%s=%d", confinedEnv, lowest)))
}

// repoRoot is the enclosing dbtouch module: the benchmark is its own
// module inside the repository and is run from its own directory.
func repoRoot() (string, error) {
	root, err := filepath.Abs("..")
	if err != nil {
		return "", err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil || !strings.HasPrefix(string(mod), "module dbtouch\n") {
		return "", fmt.Errorf("run from the bench directory of the dbtouch repository (go run -C bench .): no dbtouch go.mod in %s", root)
	}
	return root, nil
}

// driverRun measures one workload and prints the driver's result line.
func driverRun(o runOpts) int {
	res, err := runWorkload(o)
	if err != nil {
		// Without a verified result there is nothing to report.
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	metrics := res.EndToEnd
	if o.layers {
		// The driver wants every per-layer name on every workload: 0 stands
		// for a layer this workload's requests never reach.
		metrics = metricSet{}
		for _, def := range perLayer {
			metrics.set(def.Name, res.PerLayer[def.Name].Value)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	fmt.Printf("# %s seed=%d C=%d samples=%d window=%.3fs sessions=%d\n",
		o.workload, o.seed, o.clients, res.Samples, res.WindowSeconds, res.Sessions)
	for _, name := range sortedKeys(res.Repeats) {
		if len(res.Repeats[name]) < 2 {
			continue
		}
		fmt.Printf("# %s: spread %.3f over %v\n", name, spread(res.Repeats[name]), res.Repeats[name])
	}
	fmt.Println(string(line))
	return 0
}

// fullRun measures every workload, untraced then traced, and prints
// every metric by name with its unit.
func fullRun(o runOpts, host hostStamp) (*report, int) {
	rep := &report{Host: host, UnixTime: time.Now().Unix()}
	fmt.Printf("# dbtouch bench: seed=%d C=%d nproc=%d (cpu %s of %d) GOMAXPROCS=%d %s cpu=%q L2=%s LLC=%s commit=%s\n",
		host.Seed, host.Clients, host.NumCPU, host.ConfinedTo, host.MachineCPUs, host.GOMAXPROCS, host.GoVersion, host.CPUModel, host.L2, host.LLC, host.Commit)
	code := 0
	for _, w := range workloadWhy {
		o.workload, o.layers = w.name, true
		res, err := runWorkload(o)
		rep.Workloads = append(rep.Workloads, res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		if res.Failed > 0 {
			code = 1
		}
		printResult(res)
		// The next workload's cold starts should not be timed beside the
		// collection of this one's tables.
		runtime.GC()
	}
	return rep, code
}

func printResult(res *result) {
	fmt.Printf("\n## %s  samples=%d window=%.3fs sessions=%d attempted=%d failed=%d\n",
		res.Workload, res.Samples, res.WindowSeconds, res.Sessions, res.Attempted, res.Failed)
	row := func(kind string, set metricSet, m metricDef) {
		v, ok := set[m.Name]
		if !ok {
			return
		}
		fmt.Printf("%-14s %-10s %-38s %14.4f %-6s", res.Workload, kind, m.Name, v.Value, v.Unit)
		if m.Bound > 0 {
			fmt.Printf(" (%s is better, bound %.2f", m.Better, m.Bound)
			if n := len(res.Repeats[m.Name]); n > 1 {
				fmt.Printf(", spread of its %d repeats %.3f", n, spread(res.Repeats[m.Name]))
			}
			fmt.Print(")")
		}
		fmt.Println()
	}
	for _, m := range endToEnd {
		row("end_to_end", res.EndToEnd, m)
	}
	fmt.Printf("%-14s %-10s %-38s %14.4f %-6s (bound 0, absolute)\n", res.Workload, "end_to_end", "failed_share",
		float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	for _, m := range ownEndToEnd {
		row("end_to_end", res.PerLayer, m)
	}
	for _, m := range perLayer[:len(perLayer)-len(ownEndToEnd)] {
		row("per_layer", res.PerLayer, m)
	}
	for _, name := range sortedKeys(res.Shares) {
		fmt.Printf("%-14s share      %-38s %14.4f of mean traced perform time\n", res.Workload, name, res.Shares[name])
	}
}

// driverSeconds is BENCHMARK.json's run_seconds: the measured window the
// driver passes as --seconds. With warm-ups, reference bursts, five cold
// starts, input generation and the fleet's failover phase a run takes
// 20-38 s (20 s windows took 26-42 s: nine tenths of the budget), so the
// driver's 92 runs and two builds fit its 3420 s with a quarter to spare
// for a slow host.
const driverSeconds = 15

// manifest is the root BENCHMARK.json: exactly the driver's keys.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWhy    `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// buildManifest renders BENCHMARK.json from the metric tables. The
// command names the package by its import path, not as ".": the driver
// lets a command name no directory outside paths, and "." read from the
// checkout's root is one.
func buildManifest() manifest {
	m := manifest{Command: []string{"go", "run", "-C", "bench", "dbtouch/bench"}, Paths: []string{"bench"}, RunSeconds: driverSeconds}
	for _, w := range workloadWhy {
		m.Workloads = append(m.Workloads, manifestWhy{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}

func printManifest() int {
	data, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
