package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"
)

// The reference load. On a shared VM the speed of what these workloads do
// wanders with what the neighbours do: the wire path (syscalls, loopback
// TCP, process switches) by a factor of two over minutes, memory streaming
// by a quarter — far longer than a run lasts and far more than the bounds
// allow. So every client interleaves its ops with short bursts of a fixed
// reference load that holds no product code and has the workload's own
// bottleneck, and every slice's timings are reported at the speed the
// reference load reaches on the quiet reference box: a slice during which
// the reference load ran at 0.8 of that speed has its rates divided and
// its times multiplied by 0.8. A change to product code cannot move the
// reference load; a change of host speed moves both and cancels.

// refKind is the reference load a workload is read against.
type refKind int

const (
	// refWire: tap-sized round trips between the client and a server that
	// answers from a constant, in a process of its own — the bottleneck of
	// the workloads whose time goes to protocol and session.
	refWire refKind = iota
	// refScan: a filtered float sum over 4M rows in the client's own
	// process, as a compare pass that fills a selection vector and a
	// per-value pass through interface calls — the two shapes of kernel
	// scan_direct spends its time in (streaming compares, and the
	// selection-vector path of its float sums).
	refScan
)

// The nominal time of one reference unit on the reference box when it is
// quiet. Only their constancy matters: on that box a timing reported at
// reference speed reads as the raw timing does in a quiet minute.
const (
	nominalTripUS = 50.0    // one refWire round trip
	nominalPassUS = 30000.0 // one refScan pass
)

// A client runs one burst of its reference load after every so much op
// time (at least one op): a fifth again of the time it measures.
const (
	wireEvery = 20 * time.Millisecond // then wireTrips round trips
	wireTrips = 40
	scanEvery = 100 * time.Millisecond // then one pass
)

// roleEnv selects what the binary (or, under go test, the test binary)
// does when started as a child of the benchmark.
const (
	roleEnv       = "DBTOUCH_BENCH_ROLE"
	roleReference = "reference-server"
)

// referenceBody is what the reference server answers, the size of a tap's
// response; referenceRequest is the size of a tap's request.
var (
	referenceBody    = bytes.Repeat([]byte("r"), 147)
	referenceRequest = bytes.Repeat([]byte("q"), 150)
)

// referenceServer is the child's whole life: serve canned answers on addr
// until killed.
func referenceServer(addr string) int {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ready") })
	mux.HandleFunc("/rpc", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write(referenceBody)
	})
	fmt.Fprintln(os.Stderr, "bench: reference server:", http.ListenAndServe(addr, mux))
	return 1
}

// reference is one run's reference load: for refWire the started server,
// for refScan the columns.
type reference struct {
	kind  refKind
	every time.Duration
	srv   *proc
	keys  []int64
	vals  refColumn
}

// refValuer and refAdder keep the per-value pass from being inlined into
// a tight loop: production reaches its values and its aggregate through
// calls too.
type (
	refValuer interface{ at(i int32) float64 }
	refAdder  interface{ add(v float64) }
	refColumn []float64
	refSum    struct{ sum float64 }
)

func (c refColumn) at(i int32) float64 { return c[i] }
func (s *refSum) add(v float64)        { s.sum += v }

// startReference prepares the workload's reference load.
func startReference(kind refKind, dir string) (*reference, error) {
	if kind == refScan {
		r := &reference{kind: kind, every: scanEvery, keys: make([]int64, 4<<20), vals: make(refColumn, 4<<20)}
		x := uint64(88172645463325252)
		for i := range r.keys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			r.keys[i], r.vals[i] = int64(x%1000), float64(x%1000003)/1000
		}
		return r, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	r := &reference{kind: kind, every: wireEvery}
	r.srv = &proc{name: "reference", bin: exe, args: []string{addr}, addr: addr, env: []string{roleEnv + "=" + roleReference}, log: dir + "/reference.log"}
	if err := r.srv.start(); err != nil {
		return nil, err
	}
	if err := r.srv.waitReady(10 * time.Second); err != nil {
		r.srv.kill()
		return nil, err
	}
	return r, nil
}

func (r *reference) stop() {
	if r.srv != nil {
		r.srv.kill()
	}
}

// speedNow reads the host's speed outside a window: the mean of two
// units of the scan reference load.
func (r *reference) speedNow() (float64, error) {
	c := &client{}
	speeds, err := r.burst(c, nil)
	if err == nil {
		speeds, err = r.burst(c, speeds)
	}
	return mean(speeds), err
}

// burst runs one burst for client c (round trips go over its own
// reference connection) and appends each unit's speed — nominal time over
// measured time — to out.
func (r *reference) burst(c *client, out []float64) ([]float64, error) {
	if r.kind == refScan {
		start := time.Now()
		c.refSel = c.refSel[:0]
		for i, k := range r.keys {
			if k < 500 {
				c.refSel = append(c.refSel, int32(i))
			}
		}
		var col refValuer = r.vals
		var acc refAdder = &c.refAcc
		for _, i := range c.refSel {
			acc.add(col.at(i))
		}
		return append(out, nominalPassUS/micros(time.Since(start))), nil
	}
	for t := 0; t < wireTrips; t++ {
		start := time.Now()
		if _, _, err := c.refHC.postRaw(referenceRequest); err != nil {
			return out, fmt.Errorf("reference load: %w", err)
		}
		out = append(out, nominalTripUS/micros(time.Since(start)))
	}
	return out, nil
}
