package session

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/gesture"
	"dbtouch/internal/operator"
	"dbtouch/internal/storage"
	"dbtouch/internal/touchos"
)

// The concurrent-equivalence suite extends PR 1's span-equivalence idea
// across the session layer: a session's result stream must be
// byte-identical whether its gesture script runs alone on one goroutine
// or concurrently with many other sessions over the same shared storage,
// however many goroutines drive them (the same scripts run from 1, 4 and
// GOMAXPROCS driver goroutines — sessions must never interfere).
// Randomized scripts vary gesture speed, direction, range and touch mode
// per session; `go test -race ./internal/session` additionally proves the
// shared layer (catalog, single-flight sample columns, memoized predicate
// tables) is read without data races.

// sessionScript is one session's precomputed exploration: the touch
// configuration plus a deterministic sequence of raw event batches.
type sessionScript struct {
	id      string
	actions core.Actions
	batches [][]touchos.TouchEvent
}

// equivFrame is the shared object frame scripts slide over.
var equivFrame = touchos.NewRect(2, 2, 2, 10)

// genScript synthesizes a random exploration for one session. All
// randomness is drawn from rng, so the same seed reproduces the same
// script in the sequential and concurrent runs.
func genScript(id string, rng *rand.Rand) sessionScript {
	var synth gesture.Synth
	sc := sessionScript{id: id}

	switch rng.Intn(3) {
	case 0:
		sc.actions = core.Actions{Mode: core.ModeScan}
	case 1:
		sc.actions = core.Actions{Mode: core.ModeAggregate, Agg: operator.Sum}
	default:
		sc.actions = core.Actions{Mode: core.ModeSummary, Agg: operator.Avg, SummaryK: 5 + rng.Intn(20)}
	}
	if rng.Intn(3) == 0 {
		sc.actions.Filters = []operator.Predicate{{
			Col: 0, Op: operator.Lt, Operand: storage.IntValue(int64(200 + rng.Intn(700))),
		}}
	}

	x := equivFrame.Origin.X + equivFrame.Size.W/2
	yAt := func(frac float64) float64 {
		return equivFrame.Origin.Y + 0.02 + frac*(equivFrame.Size.H-0.04)
	}
	// Each batch starts where the session's timeline will be: gestures are
	// spaced by their own duration plus a think-time gap, so precomputed
	// absolute timestamps line up identically in both runs.
	cur := time.Duration(0)
	nBatches := 3 + rng.Intn(4)
	for b := 0; b < nBatches; b++ {
		dur := time.Duration(300+rng.Intn(1200)) * time.Millisecond
		from, to := rng.Float64(), rng.Float64()
		var events []touchos.TouchEvent
		if rng.Intn(4) == 0 {
			events = synth.Tap(touchos.Point{X: x, Y: yAt(from)}, cur)
		} else {
			events = synth.Slide(
				touchos.Point{X: x, Y: yAt(from)},
				touchos.Point{X: x, Y: yAt(to)},
				cur, dur,
			)
		}
		sc.batches = append(sc.batches, events)
		// Past the end of the gesture plus a gap; the dispatcher clamps if
		// the kernel is still busy.
		cur += dur + 2*time.Second
	}
	return sc
}

// setupEquivManager builds a manager over the shared integer table and
// creates one configured session per script.
func setupEquivManager(t *testing.T, data []int64, scripts []sessionScript) (*Manager, map[string]*[]core.Result) {
	t.Helper()
	m := NewManager(core.DefaultConfig())
	mx, err := storage.NewMatrix("t", storage.NewIntColumn("v", data))
	if err != nil {
		t.Fatal(err)
	}
	m.Catalog().Register(mx)
	streams := make(map[string]*[]core.Result, len(scripts))
	for _, sc := range scripts {
		s, err := m.Create(sc.id)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := s.CreateColumnObject("t", "v", equivFrame)
		if err != nil {
			t.Fatal(err)
		}
		obj.SetActions(sc.actions)
		stream := &[]core.Result{}
		s.OnResult(func(r core.Result) { *stream = append(*stream, r) })
		streams[sc.id] = stream
	}
	return m, streams
}

// driveScripts runs every script on m from the given number of driver
// goroutines: session i belongs to driver i%goroutines, and each driver
// interleaves its sessions' batches round-robin through Dispatch.
func driveScripts(t *testing.T, m *Manager, scripts []sessionScript, goroutines int) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; ; b++ {
				any := false
				for i := g; i < len(scripts); i += goroutines {
					if sc := scripts[i]; b < len(sc.batches) {
						any = true
						if _, err := m.Dispatch(sc.id, sc.batches[b]); err != nil {
							t.Error(err)
							return
						}
					}
				}
				if !any {
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

func TestConcurrentStreamsIdenticalToSequential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			data := make([]int64, 120_000)
			for i := range data {
				data[i] = int64(rng.Intn(1000))
			}
			const nSessions = 6
			scripts := make([]sessionScript, nSessions)
			for i := range scripts {
				scripts[i] = genScript(fmt.Sprintf("user%d", i), rand.New(rand.NewSource(seed*100+int64(i))))
			}

			// Sequential reference: every batch of every session on the
			// test goroutine, one session at a time.
			seqM, seqStreams := setupEquivManager(t, data, scripts)
			for _, sc := range scripts {
				for _, batch := range sc.batches {
					if _, err := seqM.Dispatch(sc.id, batch); err != nil {
						t.Fatal(err)
					}
				}
			}
			seqM.Close()

			// Concurrent runs: 1 driver goroutine (all sessions interleaved
			// round-robin on one goroutine), 4 (a few sessions each) and
			// GOMAXPROCS must all reproduce the sequential streams.
			for _, goroutines := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				conM, conStreams := setupEquivManager(t, data, scripts)
				driveScripts(t, conM, scripts, goroutines)
				conM.Close()

				for _, sc := range scripts {
					seq, con := *seqStreams[sc.id], *conStreams[sc.id]
					if len(seq) == 0 {
						t.Fatalf("session %s: sequential run emitted nothing", sc.id)
					}
					if !reflect.DeepEqual(seq, con) {
						limit := len(seq)
						if len(con) < limit {
							limit = len(con)
						}
						for i := 0; i < limit; i++ {
							if !reflect.DeepEqual(seq[i], con[i]) {
								t.Fatalf("session %s (%d goroutines): result %d differs\nseq: %+v\ncon: %+v",
									sc.id, goroutines, i, seq[i], con[i])
							}
						}
						t.Fatalf("session %s (%d goroutines): stream lengths differ (seq %d, con %d)",
							sc.id, goroutines, len(seq), len(con))
					}
				}
			}
		})
	}
}
