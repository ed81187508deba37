package protocol

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// routerFunc adapts a function to Router.
type routerFunc func(Request) Response

func (f routerFunc) HandleRequest(req Request) Response { return f(req) }

// postRPC drives one request through the handler on a recorder — no
// server, so the only goroutines in play are the test's and the runners'.
func postRPC(t *testing.T, h http.Handler, req Request) (*httptest.ResponseRecorder, Response) {
	t.Helper()
	body, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRPCBody(t, h, body)
}

func postRPCBody(t *testing.T, h http.Handler, body []byte) (*httptest.ResponseRecorder, Response) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(body)))
	resp, err := DecodeResponse(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("undecodable response %q: %v", rec.Body.Bytes(), err)
	}
	return rec, resp
}

func idleRunnerCount() int {
	idleRunners.Lock()
	defer idleRunners.Unlock()
	return len(idleRunners.list)
}

// liveRunners counts the runner goroutines that exist, parked or not, by
// the runner loop's frame in a dump of every goroutine's stack.
func liveRunners() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("protocol.takeRunner.func1("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// settled waits until every runner goroutine still alive is parked:
// runners retire asynchronously after their jobs channel closes, and one
// that stays alive unparked is leaked. Only runners are counted — the
// /rpc path starts no other goroutine, and a total count would also see
// the testing package's own goroutine for the previous test, which may
// still be exiting when this one starts.
func settled(t *testing.T, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		live, parked := liveRunners(), idleRunnerCount()
		if live == parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d runner goroutines alive, %d parked", what, live, parked)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRPCTimeoutAbandonsExecution pins the WithRPCTimeout contract: past
// the deadline the client gets 503 + Retry-After and an overloaded
// envelope in the version it spoke, the abandoned execution still takes
// effect once it gets to run, and its runner then exits.
func TestRPCTimeoutAbandonsExecution(t *testing.T) {
	release := make(chan struct{})
	executed := make(chan string, 1)
	var runnerID string
	h := NewHTTPHandler(routerFunc(func(req Request) Response {
		runnerID = goroutineID()
		<-release
		executed <- req.Session
		return OK()
	}), WithRPCTimeout(20*time.Millisecond))

	start := time.Now()
	rec, resp := postRPCBody(t, h, []byte(`{"v":1,"op":"perform","session":"slow"}`))
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timed-out request took %v to answer", elapsed)
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != strconv.Itoa(DefaultRetryAfterSec) {
		t.Fatalf("Retry-After %q, want %d", ra, DefaultRetryAfterSec)
	}
	if !resp.Overloaded || resp.OK || resp.V != 1 {
		t.Fatalf("want an overloaded v1 envelope, got %+v", resp)
	}
	select {
	case s := <-executed:
		t.Fatalf("execution of %q finished while still blocked", s)
	default:
	}
	close(release)
	select {
	case s := <-executed:
		if s != "slow" {
			t.Fatalf("executed %q, want the abandoned request", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the abandoned execution never ran to completion")
	}
	// The runner is retired, not parked: it must exit once it has replied,
	// and before the next test counts goroutines.
	for deadline := time.Now().Add(5 * time.Second); goroutineAlive(runnerID); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned runner never exited")
		}
	}
}

// TestRPCTimeoutLateReplyNeverCrosses drives 200 requests through one
// handler with every 10th outliving its deadline and finishing while
// later requests are in flight: each answered request must carry its own
// result — a late reply from an abandoned runner must never surface on
// someone else's request — and every abandoned execution still happens.
func TestRPCTimeoutLateReplyNeverCrosses(t *testing.T) {
	const n = 200
	var mu sync.Mutex
	gates := make(map[int]chan struct{})
	ran := make(map[int]bool)
	h := NewHTTPHandler(routerFunc(func(req Request) Response {
		i, _ := strconv.Atoi(req.Session)
		mu.Lock()
		gate := gates[i]
		mu.Unlock()
		if gate != nil {
			<-gate
		}
		mu.Lock()
		ran[i] = true
		mu.Unlock()
		resp := OK()
		resp.ObjectID = i
		return resp
	}), WithRPCTimeout(50*time.Millisecond))

	var pending chan struct{}
	for i := 1; i <= n; i++ {
		slow := i%10 == 0
		if slow {
			mu.Lock()
			gates[i] = make(chan struct{})
			mu.Unlock()
		}
		rec, resp := postRPC(t, h, Request{Op: OpPerform, Session: strconv.Itoa(i)})
		if slow {
			if rec.Code != http.StatusServiceUnavailable || !resp.Overloaded {
				t.Fatalf("request %d: status %d %+v, want a 503 overloaded envelope", i, rec.Code, resp)
			}
			pending = gates[i]
			continue
		}
		if rec.Code != http.StatusOK || !resp.OK || resp.ObjectID != i {
			t.Fatalf("request %d answered with status %d %+v", i, rec.Code, resp)
		}
		if pending != nil {
			// Let the abandoned execution finish now, so its late reply
			// lands while the following requests run.
			close(pending)
			pending = nil
		}
	}
	if pending != nil {
		close(pending)
	}
	settled(t, "after the abandoned runners finished")
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i <= n; i++ {
		if !ran[i] {
			t.Fatalf("request %d never executed", i)
		}
	}
}

// goroutineID reads the calling goroutine's id off its stack header
// ("goroutine 123 [running]:").
func goroutineID() string {
	var buf [64]byte
	fields := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	return string(fields[1])
}

// TestRPCRunnersAreReusedAndBounded pins the goroutine economy of the
// bounded path: sequential requests all execute on one parked runner
// (nothing is started per request), a concurrent burst leaves at most
// maxIdleRunners parked, and every runner past the bound exits.
func TestRPCRunnersAreReusedAndBounded(t *testing.T) {
	var mu sync.Mutex
	ids := make(map[string]int)
	var barrier *sync.WaitGroup
	h := NewHTTPHandler(routerFunc(func(Request) Response {
		id := goroutineID()
		mu.Lock()
		ids[id]++
		wg := barrier
		mu.Unlock()
		if wg != nil {
			// Hold every request of the burst in flight at once.
			wg.Done()
			wg.Wait()
		}
		return OK()
	}), WithRPCTimeout(time.Minute))

	postRPC(t, h, Request{Op: OpStats}) // park one runner
	clear(ids)
	for i := 0; i < 1000; i++ {
		if _, resp := postRPC(t, h, Request{Op: OpStats}); !resp.OK {
			t.Fatalf("request %d: %+v", i, resp)
		}
	}
	if len(ids) != 1 {
		t.Fatalf("1000 sequential requests ran on %d goroutines, want one reused runner", len(ids))
	}
	for id := range ids {
		if id == goroutineID() {
			t.Fatal("bounded requests ran inline on the caller's goroutine")
		}
	}
	settled(t, "after 1000 sequential requests")

	const burst = 2 * maxIdleRunners
	var wg sync.WaitGroup
	wg.Add(burst)
	mu.Lock()
	barrier = &wg
	mu.Unlock()
	body, err := EncodeRequest(Request{Op: OpStats})
	if err != nil {
		t.Fatal(err)
	}
	var clients sync.WaitGroup
	for i := 0; i < burst; i++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Errorf("burst request: status %d: %s", rec.Code, rec.Body.Bytes())
			}
		}()
	}
	clients.Wait()
	settled(t, "after a concurrent burst")
	if idle := idleRunnerCount(); idle != maxIdleRunners {
		t.Fatalf("%d runners parked after a burst of %d, want the bound %d", idle, burst, maxIdleRunners)
	}
}

// goroutineAlive reports whether the goroutine with that id still exists.
func goroutineAlive(id string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Contains(buf, []byte("goroutine "+id+" ["))
}

// TestRPCPanicAnswersTypedError pins the wire's last guard: a handler
// that panics — on a runner, where no net/http recover stands above it,
// or inline — answers a plain failed envelope in the request's version,
// the server keeps serving, and the runner that panicked is retired:
// it serves nothing further and its goroutine exits.
func TestRPCPanicAnswersTypedError(t *testing.T) {
	var ranOn []string // the handler runs one request at a time
	router := routerFunc(func(req Request) Response {
		ranOn = append(ranOn, goroutineID())
		if req.Session == "boom" {
			panic("boom")
		}
		return OK()
	})
	for _, tc := range []struct {
		name string
		opts []HandlerOption
	}{
		{"rpc-timeout", []HandlerOption{WithRPCTimeout(time.Minute)}},
		{"inline", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHTTPHandler(router, tc.opts...)
			ranOn = nil
			rec, resp := postRPCBody(t, h, []byte(`{"v":1,"op":"perform","session":"boom"}`))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d, want 200 with a failed envelope", rec.Code)
			}
			if resp.OK || resp.Overloaded || resp.V != 1 || resp.Error != "perform: internal error" {
				t.Fatalf("want a plain failed v1 envelope, got %+v", resp)
			}
			if _, resp := postRPC(t, h, Request{Op: OpPerform, Session: "fine"}); !resp.OK {
				t.Fatalf("the request after the panic: %+v", resp)
			}
			if tc.opts == nil {
				return // inline: the panic was on this goroutine
			}
			if ranOn[0] == ranOn[1] {
				t.Fatal("the runner that panicked served the next request")
			}
			for deadline := time.Now().Add(5 * time.Second); goroutineAlive(ranOn[0]); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the runner that panicked never exited")
				}
			}
		})
	}
}
