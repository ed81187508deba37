package experiments

import (
	"fmt"
	"time"

	"dbtouch/internal/datagen"
	"dbtouch/internal/iomodel"
	"dbtouch/internal/layout"
	"dbtouch/internal/metrics"
	"dbtouch/internal/operator"
	"dbtouch/internal/remote"
	"dbtouch/internal/storage"
	"dbtouch/internal/vclock"
)

// RotateLayout (Ext-5) measures §2.8: converting a row-major table to
// column-major in one shot versus the sample-first incremental strategy,
// reporting time-to-first-queryable and time-to-complete.
func RotateLayout(s Scale) *metrics.Table {
	t := &metrics.Table{Header: []string{
		"strategy", "first-queryable", "complete", "preview-rows",
	}}
	build := func() *storage.Matrix {
		rows := s.TableRows
		m := storage.NewRowMajorMatrix("wide", []storage.ColumnMeta{
			{Name: "a", Type: storage.Int64}, {Name: "b", Type: storage.Int64},
			{Name: "c", Type: storage.Float64}, {Name: "d", Type: storage.Float64},
			{Name: "e", Type: storage.Int64}, {Name: "f", Type: storage.Int64},
			{Name: "g", Type: storage.Float64}, {Name: "h", Type: storage.Float64},
		})
		vals := make([]storage.Value, 8)
		for r := 0; r < rows; r++ {
			for c := range vals {
				if c%2 == 0 {
					vals[c] = storage.IntValue(int64(r * (c + 1)))
				} else {
					vals[c] = storage.FloatValue(float64(r) / float64(c+1))
				}
			}
			if err := m.AppendRow(vals); err != nil {
				panic(err)
			}
		}
		return m
	}

	// One-shot full conversion.
	clock := vclock.New()
	conv, err := layout.NewConversion(build(), clock, 4096)
	if err != nil {
		panic(err)
	}
	if err := conv.Run(); err != nil {
		panic(err)
	}
	full := clock.Now()
	t.AddRow("full-copy", full.String(), full.String(), "0")

	// Sample-first: preview queryable immediately, completion continues
	// incrementally.
	clock = vclock.New()
	conv, err = layout.NewConversion(build(), clock, 4096)
	if err != nil {
		panic(err)
	}
	preview, err := conv.SampleFirst(256)
	if err != nil {
		panic(err)
	}
	firstQueryable := clock.Now()
	if err := conv.Run(); err != nil {
		panic(err)
	}
	t.AddRow("sample-first", firstQueryable.String(), clock.Now().String(),
		fmt.Sprint(preview.NumRows()))
	return t
}

// JoinNonBlocking (Ext-6) measures §2.9 "Joins": the symmetric
// (non-blocking) hash join streams its first match as soon as touched
// tuples from both sides collide, while the blocking build-then-probe
// join answers nothing until the whole build side is consumed.
func JoinNonBlocking(s Scale) *metrics.Table {
	t := &metrics.Table{Header: []string{
		"join", "first-match", "complete", "matches", "tuples-read",
	}}
	n := s.Rows / 10
	if n < 1000 {
		n = 1000
	}
	left := storage.NewIntColumn("l", datagen.Ints(datagen.Spec{N: n, Seed: 7, Min: 0, Max: float64(n / 4)}))
	right := storage.NewIntColumn("r", datagen.Ints(datagen.Spec{N: n, Seed: 8, Min: 0, Max: float64(n / 4)}))
	params := heavyIO()

	// Symmetric: alternate pushes from both sides, as interleaved slide
	// gestures would deliver them.
	clock := vclock.New()
	lt := iomodel.New(clock, params, nil)
	rt := iomodel.New(clock, params, nil)
	sym := operator.NewSymmetricHashJoin(left, right)
	var symFirst time.Duration
	for i := 0; i < n; i++ {
		if len(sym.PushLeft(i, lt)) > 0 && symFirst == 0 {
			symFirst = clock.Now()
		}
		if len(sym.PushRight(i, rt)) > 0 && symFirst == 0 {
			symFirst = clock.Now()
		}
	}
	t.AddRow("symmetric", symFirst.String(), clock.Now().String(),
		fmt.Sprint(sym.Matches()),
		fmt.Sprint(lt.Stats().ValuesRead+rt.Stats().ValuesRead))

	// Blocking: build the whole right side first.
	clock = vclock.New()
	lt = iomodel.New(clock, params, nil)
	rt = iomodel.New(clock, params, nil)
	blk := operator.NewBlockingHashJoin()
	blk.Build(right, rt)
	var blkFirst time.Duration
	var matches int64
	for i := 0; i < n; i++ {
		hits := blk.Probe(left, i, lt)
		matches += int64(len(hits))
		if len(hits) > 0 && blkFirst == 0 {
			blkFirst = clock.Now()
		}
	}
	t.AddRow("blocking", blkFirst.String(), clock.Now().String(),
		fmt.Sprint(matches),
		fmt.Sprint(lt.Stats().ValuesRead+rt.Stats().ValuesRead))
	return t
}

// IndexedSlide (Ext-10) measures §2.6 "Indexing": value-order slides pay
// a lazy index build on first use, then serve rank touches cheaply; the
// table also shows a value-range lookup against the full-scan
// alternative.
func IndexedSlide(s Scale) *metrics.Table {
	t := &metrics.Table{Header: []string{"operation", "virtual-time", "values-read"}}
	n := s.Rows / 10
	if n < 1000 {
		n = 1000
	}
	col := storage.NewIntColumn("v", datagen.Ints(datagen.Spec{N: n, Seed: 11, Min: 0, Max: 1e6}))
	params := heavyIO()

	measure := func(name string, f func(tr *iomodel.Tracker)) {
		clock := vclock.New()
		tr := iomodel.New(clock, params, nil)
		before := tr.Stats().ValuesRead
		f(tr)
		t.AddRow(name, clock.Now().String(), fmt.Sprint(tr.Stats().ValuesRead-before))
	}

	idx := indexOver(col)
	measure("index-build(lazy,first slide)", func(tr *iomodel.Tracker) { idx.Build(tr) })
	measure("value-order-slide(60 touches)", func(tr *iomodel.Tracker) {
		for i := 0; i < 60; i++ {
			rank := i * (n - 1) / 59
			if _, _, err := idx.ValueAtRank(rank, tr); err != nil {
				panic(err)
			}
		}
	})
	measure("index-range-lookup", func(tr *iomodel.Tracker) {
		if _, err := idx.Range(1000, 2000, tr); err != nil {
			panic(err)
		}
	})
	measure("fullscan-range-lookup", func(tr *iomodel.Tracker) {
		for i := 0; i < n; i++ {
			tr.Access(i)
			v := col.Float(i)
			_ = v >= 1000 && v <= 2000
		}
	})
	return t
}

// RemoteProcessing (Ext-8) measures §4 "Remote Processing": the device
// answers every touch locally from its small sample and ships batched
// detail requests to the server; per-touch round trips are the strawman.
func RemoteProcessing(s Scale) *metrics.Table {
	t := &metrics.Table{Header: []string{
		"batching", "round-trips", "bytes-moved", "local-answers", "refinements", "mean-refine-delay",
	}}
	base := storage.NewIntColumn("v", s.columnData())
	for _, batch := range []time.Duration{150 * time.Millisecond, 0} {
		clock := vclock.New()
		server, err := remote.NewServer(base, 14, iomodel.DefaultParams())
		if err != nil {
			panic(err)
		}
		dev, err := remote.NewDevice(clock, server, 8, 4, iomodel.DefaultParams())
		if err != nil {
			panic(err)
		}
		dev.BatchWindow = batch
		var refineDelay time.Duration
		var refined int64
		touches := 100
		for i := 0; i < touches; i++ {
			baseID := i * (s.Rows - 1) / touches
			dev.Touch(baseID, 2) // ask for fine detail (server level 2)
			clock.Advance(50 * time.Millisecond)
			for _, r := range dev.Poll() {
				refineDelay += r.ArrivesAt - r.RequestedAt
				refined++
			}
		}
		dev.Flush()
		clock.Advance(2 * time.Second)
		for _, r := range dev.Poll() {
			refineDelay += r.ArrivesAt - r.RequestedAt
			refined++
		}
		st := dev.Stats()
		name := "batched-150ms"
		if batch == 0 {
			name = "per-touch"
		}
		mean := time.Duration(0)
		if st.Refinements > 0 {
			mean = refineDelay / time.Duration(maxI64(refined, 1))
		}
		t.AddRow(name,
			fmt.Sprint(st.RoundTrips),
			fmt.Sprint(st.BytesMoved),
			fmt.Sprint(st.LocalAnswers),
			fmt.Sprint(st.Refinements),
			mean.String(),
		)
	}
	return t
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
