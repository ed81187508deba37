package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"dbtouch/internal/ftdc"
)

// stdout runs fn with os.Stdout redirected and returns what it printed.
func stdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	ferr := fn()
	os.Stdout = saved
	w.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return <-out
}

// TestDecodeOldSchemaCapture: testdata/schema23 was written by an older
// server with the 23-column schema, eight of whose gauges (workers,
// steals, dispatches, …) no longer exist. Chunks name their own
// columns, so the capture must keep decoding exactly — an incident file
// pulled from an old deployment stays readable.
func TestDecodeOldSchemaCapture(t *testing.T) {
	chunks, err := ftdc.ReadDir("testdata/schema23")
	if err != nil {
		t.Fatal(err)
	}
	const want = `ts_unix_ns,sessions_live,sessions_max,evictions,workers,sessions_parked,sessions_runnable,sessions_running,steals,dispatches,queued_batches,max_queued_batches,live_tables,append_epochs,live_rows,retention_gens,kernel_bytes,logged_requests,log_errors,log_compactions,log_appended_bytes,resumes,replayed_requests
1790770129185794868,1,0,0,2,1,0,0,0,1,0,4096,0,0,0,0,0,0,0,0,0,0,0
1790770129188175030,2,0,0,2,2,0,0,1,2,0,4096,0,0,0,0,0,0,0,0,0,0,0
1790770129190467426,3,0,0,2,3,0,0,2,3,0,4096,0,0,0,0,0,0,0,0,0,0,0
1790770129192750702,4,0,0,2,4,0,0,3,4,0,4096,0,0,0,0,0,0,0,0,0,0,0
1790770129195200258,5,0,0,2,5,0,0,4,5,0,4096,0,0,0,0,0,0,0,0,0,0,0
1790770129197563703,6,0,0,2,6,0,0,5,6,0,4096,0,0,0,0,0,0,0,0,0,0,0
`
	if got := stdout(t, func() error { return emitCSV(chunks) }); got != want {
		t.Fatalf("csv decode of the 23-column capture:\n got:\n%s\nwant:\n%s", got, want)
	}
	summary := stdout(t, func() error { return emitSummary(chunks) })
	for _, metric := range []string{"capture: 6 ticks", "sessions_live", "workers", "dispatches"} {
		if !strings.Contains(summary, metric) {
			t.Fatalf("summary of the old capture is missing %q:\n%s", metric, summary)
		}
	}
}

// TestSummaryRatesCounters: a cumulative column reads as a rate. The
// synthetic capture's logged_requests climbs 10 then 30 per second, so
// the summary must report its peak as 30/s, not as a level.
func TestSummaryRatesCounters(t *testing.T) {
	const s = int64(1e9)
	chunks := []ftdc.Chunk{{
		Names: []string{"ts_unix_ns", "sessions_live", "logged_requests"},
		Columns: [][]int64{
			{0, s, 2 * s},
			{1, 2, 2},
			{0, 10, 40},
		},
	}}
	summary := stdout(t, func() error { return emitSummary(chunks) })
	for _, line := range strings.Split(summary, "\n") {
		if strings.HasPrefix(line, "logged_requests ") {
			if !strings.HasSuffix(line, "peak 30/s at t+2s") {
				t.Fatalf("logged_requests reads as a level, not a rate:\n%s", line)
			}
			return
		}
	}
	t.Fatalf("summary has no logged_requests row:\n%s", summary)
}
