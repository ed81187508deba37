// Command dbtouch is the interactive demo: it loads a synthetic data set
// with a planted pattern, replays an exploration session of gestures, and
// renders the screen after each gesture the way the iPad prototype's
// display would look (objects as rectangles, results popping up in place
// and fading).
//
// Usage:
//
//	dbtouch                  # default session over 1M values
//	dbtouch -rows 100000 -pattern outliers -mode summary -k 10
//	dbtouch -csv data.csv -table readings -column temp
//	dbtouch -sessions 4      # four concurrent users over the same data
//
// With -sessions, the closing report lists the manager's live sessions;
// run dbtouch -help for the column key.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"dbtouch"
	"dbtouch/internal/datagen"
	"dbtouch/internal/script"
	"dbtouch/internal/viz"
)

// sessionsHelp documents the -sessions report.
const sessionsHelp = `
With -sessions N > 1, each session runs its slide on its own goroutine
over the shared data and the final report lists the live session ids.
`

func main() {
	rows := flag.Int("rows", 1_000_000, "synthetic column length")
	pattern := flag.String("pattern", "outliers", "planted pattern: outliers, levelshift, spikes, trend, none")
	mode := flag.String("mode", "summary", "touch mode: scan, aggregate, summary")
	k := flag.Int("k", 10, "interactive summary half-window")
	csvPath := flag.String("csv", "", "load a CSV file instead of synthetic data")
	table := flag.String("table", "t", "table name (with -csv)")
	column := flag.String("column", "v", "column name (with -csv)")
	seed := flag.Int64("seed", 42, "data seed")
	scriptPath := flag.String("script", "", "run an exploration script (see internal/script) instead of the default session")
	sessions := flag.Int("sessions", 1, "run N concurrent exploration sessions over the shared data")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprint(out, sessionsHelp)
	}
	flag.Parse()

	db := dbtouch.Open()
	colName := *column
	tblName := *table
	if *csvPath != "" {
		f, err := os.Open(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbtouch:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := db.LoadCSV(tblName, f); err != nil {
			fmt.Fprintln(os.Stderr, "dbtouch:", err)
			os.Exit(1)
		}
	} else {
		data := datagen.Floats(datagen.Spec{N: *rows, Seed: *seed, Min: 0, Max: 1000})
		var planted string
		switch *pattern {
		case "outliers":
			p := datagen.Plant(data, datagen.OutlierRegion, 0.6, 0.03, *seed)
			planted = fmt.Sprintf("outlier region at tuples [%d, %d)", p.Start, p.End)
		case "levelshift":
			p := datagen.Plant(data, datagen.LevelShift, 0.55, 0.01, *seed)
			planted = fmt.Sprintf("level shift at tuple %d", p.Start)
		case "spikes":
			p := datagen.Plant(data, datagen.Spike, 0.3, 0.05, *seed)
			planted = fmt.Sprintf("spikes inside [%d, %d)", p.Start, p.End)
		case "trend":
			p := datagen.Plant(data, datagen.TrendRegion, 0.4, 0.1, *seed)
			planted = fmt.Sprintf("trend over [%d, %d)", p.Start, p.End)
		}
		db.NewTable(tblName).Float(colName, data).MustCreate()
		if planted != "" {
			fmt.Printf("(spoiler: %s — try to see it in the summaries)\n\n", planted)
		}
	}

	if *scriptPath != "" {
		f, err := os.Open(*scriptPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbtouch:", err)
			os.Exit(1)
		}
		defer f.Close()
		commands, err := script.Parse(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbtouch:", err)
			os.Exit(1)
		}
		if err := script.NewRunner(db, os.Stdout).Run(commands); err != nil {
			fmt.Fprintln(os.Stderr, "dbtouch:", err)
			os.Exit(1)
		}
		return
	}

	if *sessions > 1 {
		multiUser(db, tblName, colName, *mode, *k, *sessions)
		return
	}

	obj, err := db.NewColumnObject(tblName, colName, 2, 2, 2, 10)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbtouch:", err)
		os.Exit(1)
	}
	switch *mode {
	case "scan":
		obj.Scan()
	case "aggregate":
		obj.Aggregate(dbtouch.Avg)
	default:
		obj.Summarize(dbtouch.Avg, *k)
	}

	render := func(caption string) {
		fmt.Println("──", caption, "── virtual time", db.Now().Round(time.Millisecond))
		fmt.Print(viz.Render(db.Kernel().Screen(), db.Kernel().Objects(), db.Results(), db.Now()))
		fmt.Println()
	}

	fmt.Printf("Loaded %q.%s: %d tuples as a 2x10cm column object.\n\n", tblName, colName, obj.Rows())

	obj.Tap(0.5)
	render("tap mid-column: one value pops up")

	obj.Slide(2 * time.Second)
	render("2s slide top→bottom: results appear and fade as the finger moves")

	obj.ZoomIn(1.8)
	obj.MoveTo(2, 2)
	obj.Slide(3 * time.Second)
	render("zoom in, slide slower: finer granularity over the same data")

	obj.SlideRange(0.5, 0.7, 2*time.Second)
	render("drill into the lower-middle region")

	hist := db.TouchLatency()
	fmt.Printf("touches handled: %d   per-touch latency: %v\n",
		hist.Count(), hist)
	st := obj.Inner().Hierarchy().TotalStats()
	fmt.Printf("values read: %d (of %d total)   cold blocks: %d   bytes: %d\n",
		st.ValuesRead, obj.Rows(), st.ColdFetches, st.BytesRead)
}

// multiUser runs n concurrent exploration sessions over the shared
// table, one goroutine per session: user i sweeps the i-th n-quantile of
// the column, slower users seeing finer granularity, and each session's
// screen is rendered in turn once all have finished. The column data and
// sample hierarchies are shared and immutable; screens, clocks and
// result logs are per session. Run dbtouch -help for the report's column
// key.
func multiUser(db *dbtouch.DB, tblName, colName, mode string, k, n int) {
	fmt.Printf("%d concurrent sessions exploring %q.%s\n\n", n, tblName, colName)
	users := make([]*dbtouch.DB, n)
	objs := make([]*dbtouch.Object, n)
	for i := range users {
		u, err := db.Session(fmt.Sprintf("user%d", i+1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbtouch:", err)
			os.Exit(1)
		}
		obj, err := u.NewColumnObject(tblName, colName, 2, 2, 2, 10)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbtouch:", err)
			os.Exit(1)
		}
		switch mode {
		case "scan":
			obj.Scan()
		case "aggregate":
			obj.Aggregate(dbtouch.Avg)
		default:
			obj.Summarize(dbtouch.Avg, k)
		}
		users[i], objs[i] = u, obj
	}
	var wg sync.WaitGroup
	for i, obj := range objs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo := float64(i) / float64(n)
			hi := float64(i+1) / float64(n)
			obj.SlideRange(lo, hi, time.Duration(i+1)*time.Second)
		}()
	}
	wg.Wait()
	for _, u := range users {
		fmt.Printf("── %s ── virtual time %v\n", u.SessionID(), u.Now().Round(time.Millisecond))
		fmt.Print(viz.Render(u.Kernel().Screen(), u.Kernel().Objects(), u.Results(), u.Now()))
		fmt.Printf("touches handled: %d   results: %d\n\n",
			u.TouchLatency().Count(), len(u.Results()))
	}
	st := db.Manager().Stats()
	limit := "unlimited"
	if st.Max > 0 {
		limit = fmt.Sprint(st.Max)
	}
	fmt.Printf("── session manager ── %d live (cap %s), %d evicted\n", st.Live, limit, st.Evictions)
	for _, s := range st.Sessions {
		fmt.Printf("  %s\n", s.ID)
	}
}
