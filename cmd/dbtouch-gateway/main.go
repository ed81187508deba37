// Command dbtouch-gateway fronts a fleet of dbtouch-serve backends with
// one protocol-compatible address: clients speak /rpc and /stream to the
// gateway exactly as they would to a single server, and the gateway
// routes each session to a backend (rendezvous hashing plus an explicit
// pin table), health-checks the fleet, and makes backend failure
// invisible by resuming sessions from the shared -session-dir on a
// healthy backend before retrying the in-flight request.
//
// Usage:
//
//	dbtouch-gateway -addr :8070 \
//	    -backends http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//
// Every backend must run with the same -session-dir (a shared
// filesystem) for failover to work; without it, sessions on a dead
// backend are lost rather than migrated. See docs/operations.md,
// "Running a fleet".
//
// Endpoints:
//
//	POST /rpc       forwarded to the session's backend, with retry,
//	                backoff and failover-by-resume
//	GET  /stream    frame-aligned relay with resume-and-reattach
//	GET  /healthz   gateway readiness (ready iff >= 1 backend is)
//	GET  /gatewayz  JSON routing snapshot: breaker states, pins, counters
//
// -debug-addr serves net/http/pprof on a listener of its own (off by
// default, never on the protocol address).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dbtouch/internal/debughttp"
	"dbtouch/internal/gateway"
	"dbtouch/internal/protocol"
)

func main() {
	addr := flag.String("addr", ":8070", "listen address")
	backends := flag.String("backends", "", "comma-separated dbtouch-serve roots to front (required), e.g. http://127.0.0.1:8081,http://127.0.0.1:8082")
	requestTimeout := flag.Duration("request-timeout", 0, "deadline for one forwarded /rpc attempt (0 = 30s)")
	healthInterval := flag.Duration("health-interval", 0, "active /healthz probe period (0 = 1s)")
	probeTimeout := flag.Duration("probe-timeout", 0, "deadline for one health probe (0 = the probe period)")
	failThreshold := flag.Int("fail-threshold", 0, "consecutive failures that trip a backend's breaker open (0 = 3)")
	successThreshold := flag.Int("success-threshold", 0, "consecutive half-open probe successes that close the breaker (0 = 2)")
	openCooldown := flag.Duration("open-cooldown", 0, "how long an open breaker waits before probing again (0 = 5s)")
	retryAttempts := flag.Int("retry-attempts", 0, "proxy-path retries after the first attempt (0 = 4)")
	retryBase := flag.Duration("retry-base", 0, "first retry's backoff ceiling (0 = 50ms; grows exponentially, full jitter)")
	retryCap := flag.Duration("retry-cap", 0, "backoff ceiling for any single retry (0 = 2s)")
	quiet := flag.Bool("quiet", false, "suppress routing state-transition logs")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof (/debug/pprof/) on this separate address (empty = off; never on the protocol listener)")
	flag.Parse()

	if *backends == "" {
		fmt.Fprintln(os.Stderr, "dbtouch-gateway: -backends is required")
		os.Exit(1)
	}
	var list []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			list = append(list, b)
		}
	}
	opts := gateway.Options{
		Backends:         list,
		RequestTimeout:   *requestTimeout,
		HealthInterval:   *healthInterval,
		ProbeTimeout:     *probeTimeout,
		FailThreshold:    *failThreshold,
		SuccessThreshold: *successThreshold,
		OpenCooldown:     *openCooldown,
		Retry: protocol.Backoff{
			Base:     *retryBase,
			Cap:      *retryCap,
			Attempts: *retryAttempts,
		},
	}
	if !*quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	g, err := gateway.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbtouch-gateway:", err)
		os.Exit(1)
	}

	// The same HTTP hardening as dbtouch-serve, and the same reason
	// WriteTimeout stays 0: /stream responses are unbounded by design.
	srv := &http.Server{
		Handler:           g.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    64 << 10,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbtouch-gateway:", err)
		os.Exit(1)
	}
	if *debugAddr != "" {
		dln, err := debughttp.Listen(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbtouch-gateway: -debug-addr:", err)
			os.Exit(1)
		}
		fmt.Printf("pprof on http://%s/debug/pprof/\n", dln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		// Finish in-flight forwards briefly, then cut live streams.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		g.Close()
		os.Exit(0)
	}()

	fmt.Printf("dbtouch-gateway listening on %s, fronting %d backends (protocol v%d)\n",
		ln.Addr(), len(list), protocol.Version)
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "dbtouch-gateway:", err)
		os.Exit(1)
	}
}
