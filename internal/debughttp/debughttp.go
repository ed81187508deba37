// Package debughttp serves the Go runtime's profiling endpoints
// (net/http/pprof) on a listener of their own — what the -debug-addr
// flag of dbtouch-serve and dbtouch-gateway turns on. The endpoints are
// mounted on a private mux and never on the protocol listener: a profile
// is an operator's tool, and /debug/pprof must not become reachable by
// whoever can reach /rpc.
package debughttp

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Listen binds addr and serves /debug/pprof/ on it until the returned
// listener is closed.
func Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index) // also serves the named profiles (heap, goroutine, …)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// No write timeout: a CPU profile or trace streams for as long as its
	// ?seconds= asks.
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln) // returns when ln is closed
	return ln, nil
}
