package session

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dbtouch/internal/core"
	"dbtouch/internal/storage"
)

// The live-ingestion equivalence suite: sessions explore a table that an
// appender is growing underneath them. Each session pins a snapshot
// epoch per gesture batch (recorded via the kernel's OnPin hook), and
// the claim under test is that the session's result stream is
// byte-identical to replaying its script against a frozen table driven
// to exactly the same epoch sequence — i.e. a pinned snapshot really is
// immutable and complete, and the incrementally grown sample levels
// served for it are indistinguishable from a from-scratch build. Run
// under -race this also proves the copy-on-tail publication protocol:
// racing appends, repins, and level extensions never touch memory a
// reader holds.

const (
	liveBaseRows      = 20_000
	liveAppendBatches = 30
	liveAppendRows    = 500
)

// liveVal is the deterministic row content: a pure function of the
// global row index, so the live run and every replay generate identical
// tables from identical epoch counts.
func liveVal(i int) int64 { return int64((i*7919 + i/3) % 1000) }

func liveEquivTable(t *testing.T) *storage.Table {
	t.Helper()
	vals := make([]int64, liveBaseRows)
	for i := range vals {
		vals[i] = liveVal(i)
	}
	tb, err := storage.NewTable("events", storage.NewIntColumn("v", vals))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// liveAppendRowsFor synthesizes append batch j (row indexes continue
// past the base and past all earlier batches).
func liveAppendRowsFor(j int) [][]storage.Value {
	rows := make([][]storage.Value, liveAppendRows)
	for i := range rows {
		rows[i] = []storage.Value{storage.IntValue(liveVal(liveBaseRows + j*liveAppendRows + i))}
	}
	return rows
}

// setupLiveEquivManager builds a manager over a fresh live table and one
// configured session per script, recording each session's result stream
// and per-batch pinned epochs.
func setupLiveEquivManager(t *testing.T, scripts []sessionScript) (*Manager, map[string]*[]core.Result, map[string]*[]uint64) {
	t.Helper()
	m := NewManager(core.DefaultConfig())
	m.Catalog().RegisterLive(liveEquivTable(t))
	streams := make(map[string]*[]core.Result, len(scripts))
	epochs := make(map[string]*[]uint64, len(scripts))
	for _, sc := range scripts {
		s, err := m.Create(sc.id)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := s.CreateColumnObject("events", "v", equivFrame)
		if err != nil {
			t.Fatal(err)
		}
		obj.SetActions(sc.actions)
		stream := &[]core.Result{}
		s.OnResult(func(r core.Result) { *stream = append(*stream, r) })
		eps := &[]uint64{}
		if err := s.Do(func(k *core.Kernel) error {
			k.OnPin(func(table string, epoch uint64) { *eps = append(*eps, epoch) })
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		streams[sc.id] = stream
		epochs[sc.id] = eps
	}
	return m, streams, epochs
}

func TestLiveAppendExploreEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const nSessions = 5
			scripts := make([]sessionScript, nSessions)
			for i := range scripts {
				scripts[i] = genScript(fmt.Sprintf("live%d", i), rand.New(rand.NewSource(seed*100+int64(i))))
			}

			for _, goroutines := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				// Live run: the sessions' driver goroutines run while an
				// appender goroutine grows the table between (and during)
				// their batches. Which epoch each batch pins is scheduling-
				// dependent — the recorded sequence is the ground truth the
				// replay reconstructs.
				m, streams, epochs := setupLiveEquivManager(t, scripts)
				appendErr := make(chan error, 1)
				go func() {
					for j := 0; j < liveAppendBatches; j++ {
						if _, err := m.Append("events", liveAppendRowsFor(j)); err != nil {
							appendErr <- err
							return
						}
						time.Sleep(time.Millisecond)
					}
					appendErr <- nil
				}()
				driveScripts(t, m, scripts, goroutines)
				if err := <-appendErr; err != nil {
					t.Fatalf("appender: %v", err)
				}
				m.Close()

				// Frozen replay, one isolated manager per session: drive a
				// fresh copy of the table to each recorded epoch (epoch =
				// 1 + append batches applied), dispatch the same script
				// batch synchronously, and demand the identical stream.
				for _, sc := range scripts {
					recorded := *epochs[sc.id]
					if len(recorded) != len(sc.batches) {
						t.Fatalf("session %s (%d goroutines): %d pinned epochs for %d batches",
							sc.id, goroutines, len(recorded), len(sc.batches))
					}
					rm, rstreams, _ := setupLiveEquivManager(t, []sessionScript{sc})
					applied := 0
					for i, batch := range sc.batches {
						e := recorded[i]
						if e < 1 || e > liveAppendBatches+1 {
							t.Fatalf("session %s: pinned epoch %d out of range", sc.id, e)
						}
						for uint64(applied+1) < e {
							if _, err := rm.Append("events", liveAppendRowsFor(applied)); err != nil {
								t.Fatalf("replay append: %v", err)
							}
							applied++
						}
						if _, err := rm.Dispatch(sc.id, batch); err != nil {
							t.Fatalf("replay dispatch: %v", err)
						}
					}
					rm.Close()

					live, frozen := *streams[sc.id], *rstreams[sc.id]
					if len(live) == 0 {
						t.Fatalf("session %s (%d goroutines): live run emitted nothing", sc.id, goroutines)
					}
					if !reflect.DeepEqual(live, frozen) {
						limit := len(live)
						if len(frozen) < limit {
							limit = len(frozen)
						}
						for i := 0; i < limit; i++ {
							if !reflect.DeepEqual(live[i], frozen[i]) {
								t.Fatalf("session %s (%d goroutines): result %d differs\nlive:   %+v\nfrozen: %+v",
									sc.id, goroutines, i, live[i], frozen[i])
							}
						}
						t.Fatalf("session %s (%d goroutines): stream lengths differ (live %d, frozen %d)",
							sc.id, goroutines, len(live), len(frozen))
					}
				}
			}
		})
	}
}
