// Command dbtouch-ftdc decodes a flight-recorder capture (written by
// dbtouch-serve -ftdc-dir) back into analyzable form: NDJSON or CSV rows
// of every captured gauge, or an incident summary that differentiates
// the cumulative counters and surfaces where the capture got hot.
//
// Usage:
//
//	dbtouch-ftdc <capture-dir-or-file>             # incident summary
//	dbtouch-ftdc -format ndjson <dir>              # one JSON object per tick
//	dbtouch-ftdc -format csv <dir>                 # header + one row per tick
//	dbtouch-ftdc -format chunks <dir>              # per-chunk inventory
//
// The decode is exact: every value is the int64 the engine observed at
// that tick. Cumulative counters (evictions, append_epochs,
// kernel_bytes) are differentiated against ts_unix_ns only in the
// summary view; ndjson/csv emit the raw captured values.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"

	"dbtouch/internal/ftdc"
)

func main() {
	format := flag.String("format", "summary", "output: summary, ndjson, csv, chunks")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dbtouch-ftdc [-format summary|ndjson|csv|chunks] <capture-dir-or-file>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	info, err := os.Stat(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbtouch-ftdc:", err)
		os.Exit(1)
	}
	var chunks []ftdc.Chunk
	if info.IsDir() {
		chunks, err = ftdc.ReadDir(path)
	} else {
		chunks, err = ftdc.ReadFile(path)
	}
	if err != nil {
		// A damaged capture still yields its readable prefix; decode what
		// we have and say so.
		fmt.Fprintln(os.Stderr, "dbtouch-ftdc: warning:", err)
	}
	if len(chunks) == 0 {
		fmt.Fprintln(os.Stderr, "dbtouch-ftdc: no decodable chunks in", path)
		os.Exit(1)
	}
	switch *format {
	case "ndjson":
		err = emitNDJSON(chunks)
	case "csv":
		err = emitCSV(chunks)
	case "chunks":
		err = emitChunks(chunks)
	case "summary":
		err = emitSummary(chunks)
	default:
		fmt.Fprintf(os.Stderr, "dbtouch-ftdc: unknown format %q\n", *format)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbtouch-ftdc:", err)
		os.Exit(1)
	}
}

func emitNDJSON(chunks []ftdc.Chunk) error {
	enc := json.NewEncoder(os.Stdout)
	for _, c := range chunks {
		for s := 0; s < c.SampleCount(); s++ {
			row := make(map[string]int64, len(c.Names))
			for m, name := range c.Names {
				row[name] = c.Columns[m][s]
			}
			if err := enc.Encode(row); err != nil {
				return err
			}
		}
	}
	return nil
}

func emitCSV(chunks []ftdc.Chunk) error {
	w := csv.NewWriter(os.Stdout)
	var header []string
	for _, c := range chunks {
		if !sameNames(header, c.Names) {
			header = c.Names
			if err := w.Write(header); err != nil {
				return err
			}
		}
		rec := make([]string, len(c.Names))
		for s := 0; s < c.SampleCount(); s++ {
			for m := range c.Names {
				rec[m] = strconv.FormatInt(c.Columns[m][s], 10)
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	w.Flush()
	return w.Error()
}

func emitChunks(chunks []ftdc.Chunk) error {
	for i, c := range chunks {
		fmt.Printf("chunk %d: %d metrics x %d samples", i, len(c.Names), c.SampleCount())
		if ts := c.Column("ts_unix_ns"); len(ts) > 0 {
			fmt.Printf("  span %.1fs", float64(ts[len(ts)-1]-ts[0])/1e9)
		}
		fmt.Println()
	}
	return nil
}

// counterMetrics are cumulative; the summary differentiates them into
// per-second rates against the capture's own timestamps. steals and
// dispatches appear only in captures from servers older than the current
// 15-column schema.
var counterMetrics = map[string]bool{
	"steals": true, "dispatches": true, "evictions": true,
	"append_epochs": true, "retention_gens": true, "kernel_bytes": true,
	"logged_requests": true, "log_errors": true, "log_compactions": true,
	"log_appended_bytes": true, "resumes": true, "replayed_requests": true,
}

func emitSummary(chunks []ftdc.Chunk) error {
	type series struct {
		vals []int64
		ts   []int64
	}
	byName := map[string]*series{}
	ticks := 0
	for _, c := range chunks {
		ts := c.Column("ts_unix_ns")
		ticks += c.SampleCount()
		for m, name := range c.Names {
			s := byName[name]
			if s == nil {
				s = &series{}
				byName[name] = s
			}
			s.vals = append(s.vals, c.Columns[m]...)
			s.ts = append(s.ts, ts...)
		}
	}
	tsAll := byName["ts_unix_ns"]
	if tsAll != nil && len(tsAll.vals) > 1 {
		span := float64(tsAll.vals[len(tsAll.vals)-1]-tsAll.vals[0]) / 1e9
		fmt.Printf("capture: %d ticks over %.1fs in %d chunks\n\n", ticks, span, len(chunks))
	} else {
		fmt.Printf("capture: %d ticks in %d chunks\n\n", ticks, len(chunks))
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		if name != "ts_unix_ns" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-20s %12s %12s %12s   %s\n", "metric", "min", "max", "last", "hot (peak rate or level)")
	for _, name := range names {
		s := byName[name]
		mn, mx := s.vals[0], s.vals[0]
		for _, v := range s.vals {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		hot := ""
		if counterMetrics[name] {
			if rate, at, ok := peakRate(s.vals, s.ts); ok {
				hot = fmt.Sprintf("peak %.0f/s at t+%.0fs", rate, at)
				if name == "kernel_bytes" {
					hot = fmt.Sprintf("peak %.2f GB/s at t+%.0fs", rate/1e9, at)
				}
			}
		} else if peak, at, ok := peakLevel(s.vals, s.ts); ok {
			hot = fmt.Sprintf("peak %d at t+%.0fs", peak, at)
		}
		fmt.Printf("%-20s %12d %12d %12d   %s\n", name, mn, mx, s.vals[len(s.vals)-1], hot)
	}
	return nil
}

// peakRate differentiates a cumulative counter and returns its highest
// per-second rate and the offset (seconds from capture start) at which
// it occurred.
func peakRate(vals, ts []int64) (rate, atSec float64, ok bool) {
	if len(vals) < 2 || len(ts) != len(vals) {
		return 0, 0, false
	}
	for i := 1; i < len(vals); i++ {
		dt := float64(ts[i]-ts[i-1]) / 1e9
		if dt <= 0 {
			continue
		}
		r := float64(vals[i]-vals[i-1]) / dt
		if !ok || r > rate {
			rate, atSec, ok = r, float64(ts[i]-ts[0])/1e9, true
		}
	}
	return rate, atSec, ok
}

// peakLevel finds a gauge's maximum and when it occurred.
func peakLevel(vals, ts []int64) (peak int64, atSec float64, ok bool) {
	if len(vals) == 0 {
		return 0, 0, false
	}
	idx := 0
	for i, v := range vals {
		if v > vals[idx] {
			idx = i
		}
	}
	if len(ts) == len(vals) && len(ts) > 0 {
		return vals[idx], float64(ts[idx]-ts[0]) / 1e9, true
	}
	return vals[idx], 0, true
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
