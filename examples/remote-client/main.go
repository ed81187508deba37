// Remote exploration over the wire protocol: a dbtouch-serve HTTP server
// holds the data; a thin client describes gestures as serializable
// values, performs them over /rpc, and watches results stream in over
// /stream — the paper's §4 remote-processing deployment end to end.
//
// The example is self-contained: it starts the server in-process on a
// loopback port (exactly what `go run ./cmd/dbtouch-serve` binds) and
// then talks to it only through HTTP.
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"dbtouch"
	"dbtouch/internal/datagen"
	"dbtouch/internal/gesture"
	"dbtouch/internal/protocol"
)

func main() {
	// Server side: full data, sample hierarchies, session manager.
	db := dbtouch.Open()
	data := datagen.Floats(datagen.Spec{N: 200_000, Seed: 7, Min: 0, Max: 1000})
	datagen.Plant(data, datagen.OutlierRegion, 0.6, 0.03, 7)
	db.NewTable("sensors").Float("reading", data).MustCreate()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	server := &http.Server{Handler: protocol.NewHTTPHandler(db.Manager())}
	go server.Serve(ln)
	defer server.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("server up at %s\n\n", base)

	// Client side: no data, only descriptions of intent.
	c := &protocol.Client{Base: base}
	if err := c.Open("analyst"); err != nil {
		panic(err)
	}
	if _, err := c.CreateColumn("analyst", "col", "sensors", "reading", 2, 2, 2, 10); err != nil {
		panic(err)
	}
	if err := c.Configure("analyst", "col", protocol.ActionsSpec{Mode: "summary", Agg: "avg", K: intp(10)}); err != nil {
		panic(err)
	}

	// Watch the session's live result stream from a second connection
	// while gestures are performed on the first.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamed := make(chan protocol.ResultFrame, 64)
	go func() {
		defer close(streamed)
		c.Stream(ctx, "analyst", 0, func(f protocol.ResultFrame) bool {
			streamed <- f
			return true
		})
	}()
	time.Sleep(50 * time.Millisecond) // let the subscription land before gesturing

	frames, err := c.Perform("analyst", "col", gesture.NewSlide(0, 0, 1, 2*time.Second))
	if err != nil {
		panic(err)
	}
	fmt.Printf("slide over 200k tuples answered with %d frames; first few via /stream:\n", len(frames))
	for i := 0; i < 5; i++ {
		f, ok := <-streamed
		if !ok {
			break
		}
		fmt.Printf("  [%7d-%7d] avg=%8.2f  (level %d, t=%v)\n",
			f.WindowLo, f.WindowHi, f.Agg, f.Level, f.Time.Round(time.Millisecond))
	}

	// Zoom in (finer granularity), drill into the outlier region.
	if _, err := c.Perform("analyst", "col", gesture.NewZoom(0, 1.8)); err != nil {
		panic(err)
	}
	drill, err := c.Perform("analyst", "col", gesture.NewSlide(0, 0.55, 0.67, 2*time.Second))
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ndrill into the hot region: %d frames, e.g. %s\n", len(drill), render(drill))

	st, err := c.Stats()
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nserver stats: %d live session(s), %d eviction(s)\n", st.Live, st.Evictions)
}

func render(frames []protocol.ResultFrame) string {
	if len(frames) == 0 {
		return "(none)"
	}
	f := frames[len(frames)/2]
	return fmt.Sprintf("avg=%.2f over [%d, %d)", f.Agg, f.WindowLo, f.WindowHi)
}

func intp(v int) *int { return &v }
