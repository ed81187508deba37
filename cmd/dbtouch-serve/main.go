// Command dbtouch-serve runs the remote-processing deployment of the
// paper's §4 as a real network server: it holds the full data and the
// big sample hierarchies, and thin clients drive exploration sessions
// over the versioned wire protocol — gestures travel as descriptions,
// results stream back as frames.
//
//	POST /rpc                            protocol.Request → protocol.Response
//	GET  /stream?session=ID[&buffer=N]   live results — NDJSON frames, or
//	                                     the binary columnar encoding when
//	                                     the client sends
//	                                     Accept: application/x-dbtouch-bin
//	GET  /healthz                        liveness/readiness probe: 200
//	                                     "ready", or 503 "starting"/
//	                                     "draining" — what a gateway's
//	                                     health checker and the smoke
//	                                     scripts poll
//
// Usage:
//
//	dbtouch-serve                        # 1M synthetic values on :8080
//	dbtouch-serve -addr :9000 -rows 100000 -pattern levelshift
//	dbtouch-serve -csv data.csv -table readings
//	dbtouch-serve -max-sessions 1000    # LRU-evict beyond 1000 sessions
//	dbtouch-serve -admit-sessions 10000 # reject opens past 10000 sessions
//	dbtouch-serve -live 'events:ts=int,key=string,value=int' \
//	    -retain-rows 100000 -append-rate 50000 -append-burst 10000
//	dbtouch-serve -ftdc-dir /var/lib/dbtouch/ftdc -ftdc-interval 1s \
//	    -ftdc-retain 67108864           # always-on flight recorder
//	dbtouch-serve -session-dir /var/lib/dbtouch/sessions \
//	    -session-retain 268435456       # durable, resumable sessions
//
// -session-dir turns on session durability: every executed request is
// appended to a per-session log (compacted into checkpoints past
// -session-compact bytes, the directory bounded by -session-retain),
// and a crashed or evicted session resumes exactly where it stopped —
// send {"op":"resume","session":ID} after a restart, or route through
// dbtouch-gateway, which resumes for its clients. Live-table appends are
// persisted and restored at startup too. See docs/operations.md, "Session durability".
//
// -ftdc-dir turns on the flight recorder: every session/storage
// gauge is sampled each -ftdc-interval into delta-of-delta
// compressed chunks under the -ftdc-retain disk budget. SIGHUP flushes
// the partial chunk; decode a capture with dbtouch-ftdc (see
// docs/operations.md, "Diagnosing an incident from an FTDC capture").
//
// -live serves an appendable table alongside the static data: clients
// feed it with the wire protocol's append op while sessions explore
// consistent snapshots of it (docs: ARCHITECTURE.md, "Ingestion &
// snapshots"). -retain-rows/-retain-age bound its history, -append-rate
// caps ingestion (rejected batches get 503 + Retry-After).
//
// Concurrency model: net/http spends one goroutine per connection, and a
// request executes on it (with -rpc-timeout set, on a reused runner
// goroutine the connection's goroutine waits for, so the request can be
// abandoned at the deadline) — one kernel execution per session at a time
// (the session's run lock), any number of sessions in parallel; an idle
// session holds no goroutine. What bounds the server is admission
// (-admit-sessions answers opens past the ceiling with HTTP 503 +
// Retry-After; -max-sessions LRU-evicts), -rpc-timeout per request,
// -append-rate for ingestion, and the HTTP read/idle timeouts. See
// docs/operations.md for tuning guidance.
//
// Once the tables are loaded the server paces its garbage collector so
// that the next heap goal is the loaded heap plus twice what lives beyond
// it (at least 4 MiB), never above GOGC=100's goal; setting GOGC or
// GOMEMLIMIT in the environment turns the pacing off.
//
// -debug-addr serves net/http/pprof on a listener of its own (off by
// default, never on the protocol address): profile the live server with
// go tool pprof http://ADDR/debug/pprof/profile?seconds=30.
//
// Try it:
//
//	curl -d '{"v":1,"op":"open","session":"u1"}' localhost:8080/rpc
//	curl -d '{"v":1,"op":"create","session":"u1","object":"o","create":{"table":"t","column":"v","x":2,"y":2,"w":2,"h":10}}' localhost:8080/rpc
//	curl -d '{"v":1,"op":"perform","session":"u1","object":"o","gesture":{"kind":"slide","to":1,"dur":2000000000}}' localhost:8080/rpc
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

	"dbtouch"
	"dbtouch/internal/datagen"
	"dbtouch/internal/debughttp"
	"dbtouch/internal/gcpace"
	"dbtouch/internal/protocol"
	"dbtouch/internal/sessionlog"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	rows := flag.Int("rows", 1_000_000, "synthetic column length")
	pattern := flag.String("pattern", "outliers", "planted pattern: outliers, levelshift, spikes, trend, none")
	csvPath := flag.String("csv", "", "load a CSV file instead of synthetic data")
	table := flag.String("table", "t", "table name")
	column := flag.String("column", "v", "column name (synthetic data)")
	seed := flag.Int64("seed", 42, "data seed")
	maxSessions := flag.Int("max-sessions", 0, "cap live sessions (0 = unlimited; beyond the cap the least recently used session is evicted)")
	admitSessions := flag.Int("admit-sessions", 0, "hard live-session ceiling, counting the server's own \"main\" session (0 = none; beyond it opens are rejected with 503 + Retry-After instead of evicting)")
	liveSpec := flag.String("live", "", "also serve an appendable live table: 'name:col=type,...' with types int, float, bool, string")
	retainRows := flag.Int("retain-rows", 0, "live table: cap retained rows (0 = unbounded)")
	retainAge := flag.Duration("retain-age", 0, "live table: drop rows older than this (0 = unbounded; requires -retain-age-column)")
	retainAgeCol := flag.String("retain-age-column", "", "live table: INT column of Unix nanosecond timestamps, nondecreasing in row order, read by -retain-age")
	appendRate := flag.Float64("append-rate", 0, "live table: append rate limit in rows/sec (0 = unlimited; over the limit the server answers 503 + Retry-After)")
	appendBurst := flag.Int("append-burst", 0, "live table: append limiter burst in rows (0 = rate for one second)")
	ftdcDir := flag.String("ftdc-dir", "", "flight recorder: capture telemetry chunks into this directory (empty = off; decode with dbtouch-ftdc)")
	ftdcInterval := flag.Duration("ftdc-interval", 0, "flight recorder: sampling tick (0 = 1s)")
	ftdcRetain := flag.Int64("ftdc-retain", 0, "flight recorder: capture directory disk budget in bytes, oldest files deleted first (0 = 64 MiB)")
	ftdcChunk := flag.Int("ftdc-chunk", 0, "flight recorder: samples per compressed chunk (0 = 300)")
	sessionDir := flag.String("session-dir", "", "session durability: persist per-session request logs into this directory (empty = off; crashed or evicted sessions become resumable via the resume op)")
	sessionRetain := flag.Int64("session-retain", 0, "session durability: log directory disk budget in bytes, oldest parked session histories deleted first (0 = unbounded)")
	sessionCompact := flag.Int64("session-compact", 0, "session durability: compact a session's log into a checkpoint past this many tail bytes (0 = 256 KiB)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "HTTP read deadline for one request (0 = unbounded)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "HTTP keep-alive idle deadline (0 = unbounded)")
	rpcTimeout := flag.Duration("rpc-timeout", time.Minute, "wall-clock deadline for one /rpc request; past it the client gets 503 + Retry-After (0 = unbounded; /stream is never bounded)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof (/debug/pprof/) on this separate address (empty = off; never on the protocol listener)")
	drainGrace := flag.Duration("drain-grace", 0, "on SIGTERM, keep serving this long after flipping /healthz to draining, so a gateway's health checker can migrate sessions before shutdown")
	flag.Parse()

	db := dbtouch.Open()
	if *csvPath != "" {
		f, err := os.Open(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbtouch-serve:", err)
			os.Exit(1)
		}
		err = db.LoadCSV(*table, f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbtouch-serve:", err)
			os.Exit(1)
		}
	} else {
		data := datagen.Floats(datagen.Spec{N: *rows, Seed: *seed, Min: 0, Max: 1000})
		switch *pattern {
		case "outliers":
			datagen.Plant(data, datagen.OutlierRegion, 0.6, 0.03, *seed)
		case "levelshift":
			datagen.Plant(data, datagen.LevelShift, 0.55, 0.01, *seed)
		case "spikes":
			datagen.Plant(data, datagen.Spike, 0.3, 0.05, *seed)
		case "trend":
			datagen.Plant(data, datagen.TrendRegion, 0.4, 0.1, *seed)
		}
		db.NewTable(*table).Float(*column, data).MustCreate()
	}

	var lt *dbtouch.LiveTable
	if *liveSpec != "" {
		var err error
		lt, err = createLiveTable(db, *liveSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbtouch-serve:", err)
			os.Exit(1)
		}
		if *retainRows > 0 || *retainAge > 0 {
			if err := lt.Retain(*retainRows, *retainAge, *retainAgeCol); err != nil {
				fmt.Fprintln(os.Stderr, "dbtouch-serve:", err)
				os.Exit(1)
			}
		}
	}

	mgr := db.Manager()
	if *maxSessions > 0 {
		mgr.SetMaxSessions(*maxSessions)
	}
	if *admitSessions > 0 {
		mgr.SetAdmissionCap(*admitSessions)
	}

	var sessions *sessionlog.Store
	if *sessionDir != "" {
		var err error
		sessions, err = sessionlog.Open(sessionlog.Options{
			Dir:          *sessionDir,
			RetainBytes:  *sessionRetain,
			CompactBytes: *sessionCompact,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbtouch-serve:", err)
			os.Exit(1)
		}
		mgr.EnableDurability(sessions)
		// Replay persisted live-table appends before installing any append
		// rate limit: restoring our own durable rows must never be
		// throttled like fresh ingestion.
		tables, restored, err := mgr.RestoreTables()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbtouch-serve:", err)
			os.Exit(1)
		}
		fmt.Printf("session durability on: logs in %s, %d sessions resumable", *sessionDir, len(mgr.ResumableSessions()))
		if tables > 0 {
			fmt.Printf(", restored %d rows into %d live tables", restored, tables)
		}
		fmt.Println()
	}
	if lt != nil && *appendRate > 0 {
		burst := *appendBurst
		if burst <= 0 {
			burst = int(*appendRate)
		}
		lt.LimitAppends(*appendRate, burst)
	}

	var fr *dbtouch.FlightRecorder
	if *ftdcDir != "" {
		var err error
		fr, err = db.StartFlightRecorder(dbtouch.FlightRecorderOptions{
			Dir:          *ftdcDir,
			Interval:     *ftdcInterval,
			RetainBytes:  *ftdcRetain,
			ChunkSamples: *ftdcChunk,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbtouch-serve:", err)
			os.Exit(1)
		}
		fmt.Printf("flight recorder capturing to %s\n", *ftdcDir)
	}
	// /healthz speaks the starting/ready/draining lifecycle; the admit
	// gate turns opens and resumes away while draining so a gateway (or a
	// retrying client) places the session on a backend that will outlive
	// it. WriteTimeout stays 0 on purpose — /stream responses are
	// unbounded by design — so /rpc gets its own wall-clock deadline via
	// WithRPCTimeout instead.
	health := protocol.NewHealth()
	handlerOpts := []protocol.HandlerOption{protocol.WithAdmitGate(health.Ready)}
	if *rpcTimeout > 0 {
		handlerOpts = append(handlerOpts, protocol.WithRPCTimeout(*rpcTimeout))
	}
	// One routing layer: /healthz here, everything else matched by the
	// protocol handler's own switch.
	rpc, healthz := protocol.NewHTTPHandler(mgr, handlerOpts...), health.Handler()
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" {
				healthz.ServeHTTP(w, r)
				return
			}
			rpc.ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    64 << 10,
	}
	// A /stream handler only ends when its subscription does: closing the
	// streams on shutdown lets attached clients see a clean end-of-stream
	// at a frame boundary instead of holding Shutdown to its timeout.
	srv.RegisterOnShutdown(mgr.CloseStreams)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbtouch-serve:", err)
		os.Exit(1)
	}
	if *debugAddr != "" {
		dln, err := debughttp.Listen(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbtouch-serve: -debug-addr:", err)
			os.Exit(1)
		}
		fmt.Printf("pprof on http://%s/debug/pprof/\n", dln.Addr())
	}

	// SIGHUP flushes the partial FTDC chunk so an operator can decode the
	// capture up to the last tick without restarting the server. SIGINT
	// exits fast: session logs are written through per request, so even a
	// kill -9 loses nothing (exactly what the resume smoke test
	// exercises). SIGTERM drains: /healthz flips to draining (the admit
	// gate closes with it), -drain-grace gives a gateway's prober time to
	// migrate our sessions, in-flight requests finish, attached streams
	// end at a frame boundary, logs park, then exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		for s := range sig {
			switch s {
			case syscall.SIGHUP:
				if fr != nil {
					if err := fr.Flush(); err != nil {
						fmt.Fprintln(os.Stderr, "dbtouch-serve: ftdc flush:", err)
					}
				}
				continue
			case syscall.SIGTERM:
				health.Set(protocol.HealthDraining)
				fmt.Println("dbtouch-serve: draining (SIGTERM)")
				time.Sleep(*drainGrace)
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				if err := srv.Shutdown(ctx); err != nil {
					srv.Close() // cut whatever outlived the timeout
				}
				cancel()
				mgr.Close()
			default: // SIGINT: fast exit, no drain
				health.Set(protocol.HealthDraining)
			}
			if fr != nil {
				if err := fr.Stop(); err != nil {
					fmt.Fprintln(os.Stderr, "dbtouch-serve: ftdc stop:", err)
				}
			}
			if sessions != nil {
				if err := sessions.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "dbtouch-serve: session log close:", err)
				}
			}
			os.Exit(0)
		}
	}()
	for _, name := range db.Tables() {
		fmt.Printf("serving table %q\n", name)
	}
	fmt.Printf("dbtouch-serve listening on %s (protocol v%d)\n", *addr, protocol.Version)
	// The loaded tables stay live for the server's life: leave them out
	// of the collector's budget (docs/operations.md, "Memory").
	gcpace.Start()
	health.Set(protocol.HealthReady)
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "dbtouch-serve:", err)
		os.Exit(1)
	}
	// Serve returns as soon as Shutdown begins; the signal goroutine
	// finishes the drain and exits the process.
	select {}
}

// createLiveTable parses 'name:col=type,...' and registers the table.
func createLiveTable(db *dbtouch.DB, spec string) (*dbtouch.LiveTable, error) {
	name, colSpec, ok := strings.Cut(spec, ":")
	if !ok || name == "" || colSpec == "" {
		return nil, fmt.Errorf("-live: want 'name:col=type,...', got %q", spec)
	}
	b := db.NewLiveTable(name)
	for _, part := range strings.Split(colSpec, ",") {
		col, typ, ok := strings.Cut(part, "=")
		if !ok || col == "" {
			return nil, fmt.Errorf("-live: bad column spec %q", part)
		}
		switch typ {
		case "int":
			b.Int(col, nil)
		case "float":
			b.Float(col, nil)
		case "bool":
			b.Bool(col, nil)
		case "string":
			b.String(col, nil)
		default:
			return nil, fmt.Errorf("-live: column %q has unknown type %q (want int, float, bool or string)", col, typ)
		}
	}
	lt, err := b.Create()
	if err != nil {
		return nil, err
	}
	fmt.Printf("serving live table %q (appendable)\n", name)
	return lt, nil
}
