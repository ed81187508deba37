// Live ingestion, self-hosted: the system's own exploration telemetry is
// fed back in as a live table and explored while it is still growing.
//
// A probe session slides over a synthetic sensor column; every result it
// produces becomes a telemetry row (virtual timestamp, result kind,
// value) shipped over the wire protocol's append op into a live "events"
// table served by the same in-process HTTP server. A second session then
// places the growing value column on its screen and slides over it —
// each gesture batch pins the newest snapshot epoch, so the explorer
// always reads a consistent frozen prefix no matter how fast the feed
// appends underneath. Retention and an append rate limit keep the
// telemetry table bounded, the way a long-running deployment would run
// it (see docs/operations.md).
package main

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"dbtouch"
	"dbtouch/internal/datagen"
	"dbtouch/internal/protocol"
)

func main() {
	db := dbtouch.Open()

	// The data under observation: a sensor column with planted outliers.
	data := datagen.Floats(datagen.Spec{N: 500_000, Seed: 9, Min: 0, Max: 1000})
	datagen.Plant(data, datagen.OutlierRegion, 0.6, 0.03, 9)
	db.NewTable("sensors").Float("reading", data).MustCreate()

	// The telemetry sink: an appendable live table with bounded history
	// and a rate-limited feed.
	events := db.NewLiveTable("events").
		Int("ts", nil).
		String("kind", nil).
		Float("value", nil).
		MustCreate()
	if err := events.Retain(50_000, 0, ""); err != nil {
		panic(err)
	}
	events.LimitAppends(200_000, 50_000)

	// Serve both tables over the wire protocol on a loopback port; the
	// telemetry feed goes through HTTP like any remote ingester would.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	server := &http.Server{Handler: protocol.NewHTTPHandler(db.Manager())}
	go server.Serve(ln)
	defer server.Close()
	feed := &protocol.Client{Base: "http://" + ln.Addr().String()}
	fmt.Printf("server up at %s, live table %q at epoch %d\n\n", feed.Base, "events", events.Epoch())

	// Probe session: explores the sensors and emits telemetry. Results
	// are buffered on a channel so the touch pipeline never blocks on the
	// network, and a shipper goroutine batches them into append calls.
	probe, err := db.Session("probe")
	if err != nil {
		panic(err)
	}
	telemetry := make(chan []any, 4096)
	probe.OnResult(func(r dbtouch.Result) {
		select {
		case telemetry <- []any{int64(r.Time), r.Kind.String(), r.Agg}:
		default: // feed saturated: drop telemetry, never stall a gesture
		}
	})
	shipped := make(chan int)
	go func() {
		total := 0
		batch := make([][]any, 0, 256)
		flush := func() {
			if len(batch) == 0 {
				return
			}
			if _, _, err := feed.Append("events", batch); err == nil {
				total += len(batch)
			} // overloaded appends drop the batch; a real feed would back off and retry
			batch = batch[:0]
		}
		for row := range telemetry {
			batch = append(batch, row)
			// Keep draining while rows are ready, then flush the moment the
			// feed goes quiet so the table tracks the probe with low latency.
		drain:
			for len(batch) < cap(batch) {
				select {
				case next, ok := <-telemetry:
					if !ok {
						flush()
						shipped <- total
						return
					}
					batch = append(batch, next)
				default:
					break drain
				}
			}
			flush()
		}
		flush()
		shipped <- total
	}()

	sensors, err := probe.NewColumnObject("sensors", "reading", 2, 2, 2, 10)
	if err != nil {
		panic(err)
	}
	sensors.Summarize(dbtouch.Avg, 12)

	// First probe pass primes the telemetry table (an object cannot bind
	// to a table that has never seen a row).
	first := sensors.Slide(800 * time.Millisecond)
	for events.Rows() == 0 {
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("primed: probe emitted %d results, events table at epoch %d\n", len(first), events.Epoch())

	// Explorer session: watches the telemetry arrive. Its object binds to
	// the live table and follows appends batch by batch.
	explorer, err := db.Session("explorer")
	if err != nil {
		panic(err)
	}
	watch, err := explorer.NewColumnObject("events", "value", 6, 2, 2, 10)
	if err != nil {
		panic(err)
	}
	watch.Aggregate(dbtouch.Max)

	// Interleave: the probe explores (generating telemetry), the explorer
	// slides over whatever has landed so far. Each explorer gesture pins
	// one snapshot epoch for its whole duration.
	for round := 1; round <= 4; round++ {
		probeResults := sensors.Slide(800 * time.Millisecond)
		probe.Idle(200 * time.Millisecond)

		// Wait for this round's telemetry to land before exploring it
		// (the feed is asynchronous; a real dashboard would just slide
		// over whatever has arrived).
		for deadline := time.Now().Add(time.Second); events.Epoch() < uint64(round+2) && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}

		before := events.Epoch()
		watchResults := watch.Slide(600 * time.Millisecond)
		var peak float64
		for _, r := range watchResults {
			if r.Kind == dbtouch.AggregateValue && r.Agg > peak {
				peak = r.Agg
			}
		}
		fmt.Printf("round %d: probe emitted %3d results | events at epoch %3d, %6d rows | explorer saw running max %.1f\n",
			round, len(probeResults), before, events.Rows(), peak)
		explorer.Idle(200 * time.Millisecond)
	}

	close(telemetry)
	fmt.Printf("\nshipped %d telemetry rows over the wire; table ended at epoch %d with %d rows retained\n",
		<-shipped, events.Epoch(), events.Rows())
}
