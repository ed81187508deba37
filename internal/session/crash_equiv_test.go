package session_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dbtouch"
	"dbtouch/internal/protocol"
	"dbtouch/internal/script"
	"dbtouch/internal/sessionlog"
)

// Crash-point equivalence: the acceptance gate for durable sessions.
// A session killed at an arbitrary request boundary — with or without a
// torn partial frame at the end of its log — and resumed on a fresh
// manager over the same log directory must continue producing a result
// stream byte-identical to a run that was never interrupted. The suite
// randomizes scripts and crash points, and forces
// checkpoint compaction mid-run so resume exercises checkpoint + tail,
// not just tail.

// newDurableInstance builds a dbtouch instance with the deterministic
// tables the crash scripts touch and a session-log store on dir. A tiny
// compaction threshold forces several checkpoint rewrites per script.
func newDurableInstance(t *testing.T, dir string) (*dbtouch.DB, *sessionlog.Store) {
	t.Helper()
	db := dbtouch.Open()
	vals := make([]int64, 100000)
	for i := range vals {
		vals[i] = int64(i * 7 % 1000)
	}
	db.NewTable("t").Int("v", vals).MustCreate()
	n := 5000
	ids := make([]int64, n)
	temps := make([]float64, n)
	sites := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		temps[i] = float64((i*13)%100) / 2
		sites[i] = fmt.Sprintf("site%d", i%7)
	}
	db.NewTable("multi").Int("id", ids).Float("temp", temps).String("site", sites).MustCreate()
	st, err := sessionlog.Open(sessionlog.Options{Dir: dir, CompactBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	db.Manager().EnableDurability(st)
	return db, st
}

// crashScript synthesizes a randomized gesture script from a seed —
// same shape as the protocol round-trip generator, ending on a slide so
// every script measurably produces results.
func crashScript(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("column obj t v 2 2 2 10\n")
	b.WriteString("summarize obj avg 10\n")
	steps := 10 + rng.Intn(8)
	for i := 0; i < steps; i++ {
		switch rng.Intn(10) {
		case 0:
			fmt.Fprintf(&b, "scan obj\n")
		case 1:
			aggs := []string{"count", "sum", "avg", "min", "max", "var", "stddev"}
			fmt.Fprintf(&b, "aggregate obj %s\n", aggs[rng.Intn(len(aggs))])
		case 2:
			fmt.Fprintf(&b, "summarize obj avg %d\n", 1+rng.Intn(20))
		case 3:
			ops := []string{"=", "<>", "<", "<=", ">", ">="}
			fmt.Fprintf(&b, "where obj v %s %d\n", ops[rng.Intn(len(ops))], rng.Intn(1000))
		case 4:
			fmt.Fprintf(&b, "tap obj %.2f\n", rng.Float64())
		case 5:
			fmt.Fprintf(&b, "zoomin obj %.2f\n", 1.1+rng.Float64())
		case 6:
			fmt.Fprintf(&b, "zoomout obj %.2f\n", 1.1+rng.Float64())
		case 7:
			fmt.Fprintf(&b, "idle %dms\n", 100+rng.Intn(900))
		default:
			from, to := rng.Float64(), rng.Float64()
			fmt.Fprintf(&b, "slide obj %dms %.2f %.2f\n", 200+rng.Intn(1300), from, to)
		}
	}
	b.WriteString("slide obj 1s\n")
	return b.String()
}

// wireRequests encodes a crash script into the wire requests driving
// session sid, open first.
func wireRequests(t *testing.T, seed int64, sid string) []protocol.Request {
	t.Helper()
	commands, err := script.Parse(strings.NewReader(crashScript(seed)))
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := script.Encode(commands, sid)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []protocol.Request{{V: protocol.Version, Op: protocol.OpOpen, Session: sid}}
	return append(reqs, encoded...)
}

// feed routes reqs through the manager, appending a rendered
// fingerprint of every perform's result frames to out (%+v renders
// every field deterministically, and unlike JSON it survives the NaN a
// variance over zero rows legitimately produces).
func feed(t *testing.T, m interface {
	HandleRequest(protocol.Request) protocol.Response
}, reqs []protocol.Request, out *[][]byte) {
	t.Helper()
	for i, req := range reqs {
		resp := m.HandleRequest(req)
		if !resp.OK {
			t.Fatalf("request %d (%s): %s", i, req.Op, resp.Error)
		}
		if req.Op == protocol.OpPerform {
			*out = append(*out, []byte(fmt.Sprintf("%+v", resp.Results)))
		}
	}
}

// resume sends OpResume for sid and returns the replay count.
func resume(t *testing.T, db *dbtouch.DB, sid string) int {
	t.Helper()
	resp := db.Manager().HandleRequest(protocol.Request{V: protocol.Version, Op: protocol.OpResume, Session: sid})
	if !resp.OK {
		t.Fatalf("resume %q: %s", sid, resp.Error)
	}
	return resp.Replayed
}

// assertStreams compares two perform-result streams byte for byte.
func assertStreams(t *testing.T, want, got [][]byte, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: baseline %d performs, resumed run %d", label, len(want), len(got))
	}
	for i := range want {
		if string(want[i]) != string(got[i]) {
			t.Fatalf("%s: perform %d diverged:\nbaseline %s\nresumed  %s", label, i, want[i], got[i])
		}
	}
}

// tearLog appends a partial frame to sid's log — the bytes a crash
// mid-write leaves behind.
func tearLog(t *testing.T, dir, sid string, cut int) {
	t.Helper()
	frame := sessionlog.AppendFrame(nil, 1<<20, []byte(`{"op":"perform","session":"never-finished"}`))
	if cut <= 0 || cut >= len(frame) {
		cut = len(frame) / 2
	}
	f, err := os.OpenFile(filepath.Join(dir, "s-"+sid+".log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// runCrashResume executes one crash/resume round for one seed: baseline
// on a throwaway manager, then the same requests split at crashAt
// across two managers sharing a log directory. The first manager is
// simply abandoned (every logged request hit the file before its
// response was sent, so there is nothing to flush — closing the store
// only releases file handles, exactly what a kill -9 does).
func runCrashResume(t *testing.T, seed int64, torn bool) {
	sid := fmt.Sprintf("crash-%d", seed)
	reqs := wireRequests(t, seed, sid)

	baseDB, baseStore := newDurableInstance(t, t.TempDir())
	defer baseStore.Close()
	defer baseDB.Manager().Close()
	var baseline [][]byte
	feed(t, baseDB.Manager(), reqs, &baseline)
	if len(baseline) == 0 {
		t.Fatalf("seed %d produced no performs; generator broke", seed)
	}

	rng := rand.New(rand.NewSource(seed * 77))
	crashAt := 1 + rng.Intn(len(reqs)-1) // reqs[0] is the open; crash after it

	dir := t.TempDir()
	db1, store1 := newDurableInstance(t, dir)
	var prefix [][]byte
	feed(t, db1.Manager(), reqs[:crashAt], &prefix)
	store1.Close() // release fds; the log is already durable per-request
	if torn {
		tearLog(t, dir, sid, rng.Intn(28))
	}

	db2, store2 := newDurableInstance(t, dir)
	defer store2.Close()
	defer db2.Manager().Close()
	if got := resume(t, db2, sid); got != crashAt {
		t.Fatalf("resume replayed %d requests, crash point was %d", got, crashAt)
	}
	suffix := prefix
	feed(t, db2.Manager(), reqs[crashAt:], &suffix)
	assertStreams(t, baseline, suffix,
		fmt.Sprintf("seed %d crash@%d torn=%v", seed, crashAt, torn))
}

// TestCrashPointEquivalence is the headline gate: randomized scripts,
// randomized crash points, clean and torn tails, over nine seeds. Run
// under -race in CI.
func TestCrashPointEquivalence(t *testing.T) {
	// The subtest ids keep their historical "workersN/" group prefix so
	// they stay comparable across runs of the suite's history; the group
	// only ever selected the seed range (wire requests never ran on a
	// pool), which is all it does now.
	for i, group := range []string{"workers1", "workers4", "workers2"} {
		for seed := int64(1); seed <= 3; seed++ {
			seed := seed + int64(i)*10
			t.Run(fmt.Sprintf("%s/seed%d", group, seed), func(t *testing.T) {
				t.Parallel()
				runCrashResume(t, seed, false)
			})
			t.Run(fmt.Sprintf("%s/seed%d/torn", group, seed), func(t *testing.T) {
				t.Parallel()
				runCrashResume(t, seed, true)
			})
		}
	}
}

// TestCrashEquivalenceConcurrentSessions crashes a manager serving
// several sessions at once and resumes them all concurrently on the
// successor — resume must isolate per-session state under contention.
func TestCrashEquivalenceConcurrentSessions(t *testing.T) {
	const sessions = 3
	type run struct {
		sid     string
		reqs    []protocol.Request
		crashAt int
		base    [][]byte
		got     [][]byte
	}
	runs := make([]*run, sessions)
	rng := rand.New(rand.NewSource(99))
	for i := range runs {
		sid := fmt.Sprintf("multi-%d", i)
		reqs := wireRequests(t, int64(40+i), sid)
		runs[i] = &run{sid: sid, reqs: reqs, crashAt: 1 + rng.Intn(len(reqs)-1)}
	}

	baseDB, baseStore := newDurableInstance(t, t.TempDir())
	defer baseStore.Close()
	defer baseDB.Manager().Close()
	for _, r := range runs {
		feed(t, baseDB.Manager(), r.reqs, &r.base)
	}

	dir := t.TempDir()
	db1, store1 := newDurableInstance(t, dir)
	var wg sync.WaitGroup
	for _, r := range runs {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			feed(t, db1.Manager(), r.reqs[:r.crashAt], &r.got)
		}()
	}
	wg.Wait()
	store1.Close()
	tearLog(t, dir, runs[1].sid, 9) // one session crashed mid-frame

	db2, store2 := newDurableInstance(t, dir)
	defer store2.Close()
	defer db2.Manager().Close()
	for _, r := range runs {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := resume(t, db2, r.sid); got != r.crashAt {
				t.Errorf("session %s: resume replayed %d, crash point %d", r.sid, got, r.crashAt)
			}
			feed(t, db2.Manager(), r.reqs[r.crashAt:], &r.got)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, r := range runs {
		assertStreams(t, r.base, r.got, r.sid)
	}
}

// TestEvictResumeEquivalence covers the in-process half of session
// death: the manager evicts the session mid-script (LRU pressure in
// miniature), OpResume on the same manager replays it, and the stream
// continues as if the eviction never happened.
func TestEvictResumeEquivalence(t *testing.T) {
	const seed = 7
	sid := fmt.Sprintf("evict-%d", seed)
	reqs := wireRequests(t, seed, sid)

	baseDB, baseStore := newDurableInstance(t, t.TempDir())
	defer baseStore.Close()
	defer baseDB.Manager().Close()
	var baseline [][]byte
	feed(t, baseDB.Manager(), reqs, &baseline)

	db, store := newDurableInstance(t, t.TempDir())
	defer store.Close()
	defer db.Manager().Close()
	var got [][]byte
	cut := len(reqs) / 2
	if cut < 1 {
		cut = 1
	}
	feed(t, db.Manager(), reqs[:cut], &got)
	if !db.Manager().Evict(sid) {
		t.Fatalf("evict %q: not found", sid)
	}
	// Eviction parks the log rather than removing it (only a wire
	// OpEvict forgets history), so resume replays the full prefix.
	if got := resume(t, db, sid); got != cut {
		t.Fatalf("resume replayed %d, evicted at %d", got, cut)
	}
	feed(t, db.Manager(), reqs[cut:], &got)
	assertStreams(t, baseline, got, "evict/resume")
}

// TestFailbackResumeEquivalence covers the failover round trip a gateway
// performs when a backend only looked dead (a torn response): the session
// is resumed on a second manager over the shared log directory, runs
// there, and is later resumed back on the first — which still holds its
// live copy from before the failover. That copy is stale; the log has
// moved on, and the resume must rebuild from it rather than trust what is
// in memory.
func TestFailbackResumeEquivalence(t *testing.T) {
	const seed = 5
	sid := fmt.Sprintf("failback-%d", seed)
	reqs := wireRequests(t, seed, sid)
	away, back := len(reqs)/3, 2*len(reqs)/3
	if away < 1 || back <= away {
		t.Fatalf("script too short to split: %d requests", len(reqs))
	}

	baseDB, baseStore := newDurableInstance(t, t.TempDir())
	defer baseStore.Close()
	defer baseDB.Manager().Close()
	var baseline [][]byte
	feed(t, baseDB.Manager(), reqs, &baseline)

	dir := t.TempDir()
	db1, store1 := newDurableInstance(t, dir)
	defer store1.Close()
	defer db1.Manager().Close()
	db2, store2 := newDurableInstance(t, dir)
	defer store2.Close()
	defer db2.Manager().Close()

	var got [][]byte
	feed(t, db1.Manager(), reqs[:away], &got)
	if n := resume(t, db2, sid); n != away {
		t.Fatalf("failover resume replayed %d requests, want %d", n, away)
	}
	feed(t, db2.Manager(), reqs[away:back], &got)
	if n := resume(t, db1, sid); n != back {
		t.Fatalf("failback resume replayed %d requests, want the full %d (a stale live copy was trusted)", n, back)
	}
	feed(t, db1.Manager(), reqs[back:], &got)
	assertStreams(t, baseline, got, "failover and back")

	// A resume of a copy that is current stays the cheap no-op.
	if n := resume(t, db1, sid); n != 0 {
		t.Fatalf("resume of a current live session replayed %d requests, want 0", n)
	}
}
