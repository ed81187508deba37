package gateway_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dbtouch/internal/faultnet"
	"dbtouch/internal/gateway"
	"dbtouch/internal/gesture"
	"dbtouch/internal/protocol"
)

// The chaos equivalence suite: N concurrent sessions explore through
// the gateway while faultnet injects network faults and backends are
// killed, and every client-observed /rpc response must be
// byte-identical to an undisturbed single-backend control run. That is
// the tentpole claim — the fleet plus gateway is indistinguishable from
// one reliable server.
//
// Kills land between request waves (an in-process handler cannot be
// SIGKILLed mid-flight without leaving a zombie goroutine mutating
// state that a real dead process could not); the torn-mid-response
// crash is exercised instead by the CutAfter toxic, which resets the
// proxied connection mid-frame while the backend completes and logs the
// request — the lost-response case ReqID dedupe exists for.

const chaosStreamBuffer = 16384

// streamTap collects one /stream connection's NDJSON lines.
type streamTap struct {
	body io.ReadCloser
	done chan struct{}

	mu    sync.Mutex
	lines [][]byte
}

// count reports how many lines have arrived so far.
func (st *streamTap) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.lines)
}

// has reports whether any of lines has arrived.
func (st *streamTap) has(lines map[string]bool) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, l := range st.lines {
		if lines[string(l)] {
			return true
		}
	}
	return false
}

func attachStream(t *testing.T, base, session string) *streamTap {
	t.Helper()
	resp, err := http.Get(base + "/stream?session=" + session + "&buffer=" + strconv.Itoa(chaosStreamBuffer))
	if err != nil {
		t.Fatalf("stream attach %s: %v", session, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("stream attach %s: %s", session, resp.Status)
	}
	st := &streamTap{body: resp.Body, done: make(chan struct{})}
	// A failing test never reaches stop; an attached tap would then hold
	// the gateway's httptest.Server.Close (an earlier cleanup) forever.
	t.Cleanup(func() { st.body.Close() })
	go func() {
		defer close(st.done)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			st.mu.Lock()
			st.lines = append(st.lines, append([]byte(nil), sc.Bytes()...))
			st.mu.Unlock()
		}
	}()
	return st
}

// stop closes the tap and returns everything it saw (safe after close).
func (st *streamTap) stop() [][]byte {
	st.body.Close()
	return st.wait()
}

// wait returns everything the tap saw once the server ends the stream.
func (st *streamTap) wait() [][]byte {
	<-st.done
	return st.lines
}

// runControl executes every session's script sequentially against one
// undisturbed backend, returning per-session response bodies and stream
// lines — the ground truth the chaos run must reproduce byte for byte.
func runControl(t *testing.T, scripts map[string][]protocol.Request) (map[string][][]byte, map[string][][]byte) {
	t.Helper()
	control := newTestBackend(t, t.TempDir())
	bodies := make(map[string][][]byte)
	lines := make(map[string][][]byte)
	for session, script := range scripts {
		var tap *streamTap
		for i, req := range script {
			_, body := rawPost(t, control.url(), encode(t, req))
			bodies[session] = append(bodies[session], body)
			if i == 1 { // open + create done: attach like the chaos run
				tap = attachStream(t, control.url(), session)
			}
		}
		// A server-side stop delivers every emitted frame before the
		// end of the body, so the control needs no settling sleep.
		control.db.Manager().CloseStreams()
		lines[session] = tap.wait()
	}
	return bodies, lines
}

// chaosPost is rawPost without t.Fatal — wave workers run off the test
// goroutine.
func chaosPost(base string, body []byte) (int, []byte, error) {
	resp, err := http.Post(base+"/rpc", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// proveStreamAlive taps the session's object through the gateway until
// one of the taps' frames arrives on the stream, and returns the NDJSON
// lines of every frame those taps produced (a stream line is the frame
// as its perform response carries it). A stream may still be
// re-attaching when the first probe lands — that frame is lost like any
// other emitted while detached — so the probe repeats.
func proveStreamAlive(t *testing.T, gw, session string, tap *streamTap) map[string]bool {
	t.Helper()
	probe := gesture.NewTap(0, 0.5)
	raw := encode(t, protocol.Request{Op: protocol.OpPerform, Session: session, Object: "o", Gesture: &probe})
	sent := make(map[string]bool)
	taps := 0
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		status, body := rawPost(t, gw, raw)
		resp, err := protocol.DecodeResponse(body)
		if err != nil || !resp.OK {
			t.Fatalf("session %s: probe tap after the storm answered %d %s", session, status, body)
		}
		taps++
		for _, f := range resp.Results {
			line, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			sent[string(line)] = true
		}
		for wait := 0; wait < 20; wait++ {
			if tap.has(sent) {
				return sent
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Fatalf("session %s: stream relayed no frame of %d taps performed after the storm", session, taps)
	return nil
}

// isSubsequence reports whether sub's lines appear in seq in order.
func isSubsequence(sub, seq [][]byte) bool {
	j := 0
	for _, line := range sub {
		for {
			if j >= len(seq) {
				return false
			}
			j++
			if bytes.Equal(seq[j-1], line) {
				break
			}
		}
	}
	return true
}

// chaosConfig parameterizes one equivalence run.
type chaosConfig struct {
	sessions    int
	ops         int                                    // script length past open+create
	waveFault   func(w int, proxies []*faultnet.Proxy) // pre-wave fault injection
	waveKill    map[int]int                            // wave -> backend index to kill
	exactStream bool                                   // streams must match byte-for-byte
}

// runChaosEquivalence is the harness: 3 backends on one shared
// session-dir behind faultnet proxies, a gateway in front, N sessions
// advancing in lock-step waves while faults and kills land, then
// byte-comparison against the control run.
func runChaosEquivalence(t *testing.T, cfg chaosConfig) {
	t.Helper()
	scripts := make(map[string][]protocol.Request)
	for i := 0; i < cfg.sessions; i++ {
		id := fmt.Sprintf("chaos-%d", i)
		scripts[id] = sessionScript(id, cfg.ops)
	}
	wantBodies, wantLines := runControl(t, scripts)

	shared := t.TempDir()
	var backends []*testBackend
	var proxies []*faultnet.Proxy
	var fronts []string
	for i := 0; i < 3; i++ {
		b := newTestBackend(t, shared)
		p, err := faultnet.New(strings.TrimPrefix(b.url(), "http://"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		backends = append(backends, b)
		proxies = append(proxies, p)
		fronts = append(fronts, "http://"+p.Addr())
	}
	opts := fastOpts(t, fronts...)
	opts.ProbeTimeout = 2 * time.Second
	g, gw := newGateway(t, opts)

	maxLen := 0
	for _, s := range scripts {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	gotBodies := make(map[string][][]byte)
	taps := make(map[string]*streamTap)
	type result struct {
		session string
		body    []byte
		err     error
	}
	for w := 0; w < maxLen; w++ {
		if cfg.waveFault != nil {
			cfg.waveFault(w, proxies)
		}
		if idx, ok := cfg.waveKill[w]; ok {
			// Never kill the last ready backend: a connection reset can
			// trip a healthy survivor's breaker (a probe caught in flight),
			// and a fleet with nothing ready answers 503 — overload
			// behaviour, not what equivalence is about. The breaker
			// readmits the survivor on its own; give it the time.
			waitFor(t, 5*time.Second, "a ready backend to survive the kill", func() bool {
				for i, b := range backends {
					if i != idx && !b.killed.Load() && backendState(g, fronts[i]).Ready {
						return true
					}
				}
				return false
			})
			t.Logf("wave %d: killing backend %d (%s)", w, idx, backends[idx].url())
			backends[idx].kill()
		}
		var wg sync.WaitGroup
		results := make(chan result, len(scripts))
		for session, script := range scripts {
			if w >= len(script) {
				continue
			}
			raw := encode(t, script[w])
			wg.Add(1)
			go func(session string, raw []byte) {
				defer wg.Done()
				_, body, err := chaosPost(gw, raw)
				results <- result{session, body, err}
			}(session, raw)
		}
		wg.Wait()
		close(results)
		for r := range results {
			if r.err != nil {
				t.Fatalf("wave %d, session %s: %v", w, r.session, r.err)
			}
			gotBodies[r.session] = append(gotBodies[r.session], r.body)
		}
		if w == 1 {
			for session := range scripts {
				taps[session] = attachStream(t, gw, session)
			}
		}
	}
	// Clear any lingering toxics so trailing stream frames drain fast,
	// then wait for what the comparison below needs. When no connection
	// died that is the whole control stream. When connections died, no
	// scripted frame is owed at all — frames emitted while a stream is
	// detached are gone for good, and a session whose few frames all fall
	// inside one detached window (chaos-2's three taps sit between the
	// kills) legitimately relays none of them. What such a stream owes is
	// to work again: a tap performed after the storm must come through.
	for _, p := range proxies {
		p.Set(faultnet.Toxics{})
	}
	probeLines := make(map[string]map[string]bool)
	if cfg.exactStream {
		waitFor(t, 5*time.Second, "trailing stream frames", func() bool {
			for session, tap := range taps {
				if tap.count() < len(wantLines[session]) {
					return false
				}
			}
			return true
		})
	} else {
		for session, tap := range taps {
			probeLines[session] = proveStreamAlive(t, gw, session, tap)
		}
	}

	for session, want := range wantBodies {
		got := gotBodies[session]
		if len(got) != len(want) {
			t.Fatalf("session %s: %d responses, control had %d", session, len(got), len(want))
		}
		// Waves append out of order across sessions but in order within
		// one; re-sort by wave is unnecessary — each session's bodies
		// were appended from its own sequential waves. They are ordered
		// per session because each wave drains before the next starts.
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("session %s request %d diverged under chaos:\n gateway: %s\n control: %s",
					session, i, got[i], want[i])
			}
		}
	}
	for session, tap := range taps {
		got := tap.stop()
		want := wantLines[session]
		if cfg.exactStream {
			if len(got) != len(want) {
				t.Fatalf("session %s stream: %d frames, control had %d", session, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("session %s stream frame %d diverged:\n gateway: %s\n control: %s",
						session, i, got[i], want[i])
				}
			}
			continue
		}
		// Kills detach streams; frames emitted while detached are not
		// replayed (the handleStream contract). What must hold: every
		// relayed frame is genuine and in order — an ordered subsequence
		// of the control stream — and the stream kept working.
		// The probe frames follow every scripted frame; they proved the
		// stream alive above and are not the control's.
		for len(got) > 0 && probeLines[session][string(got[len(got)-1])] {
			got = got[:len(got)-1]
		}
		if !isSubsequence(got, want) {
			t.Fatalf("session %s stream is not an ordered subsequence of the control stream (%d vs %d frames)",
				session, len(got), len(want))
		}
	}
	st := g.Stats()
	t.Logf("chaos run: failovers=%d resumes=%d replayed=%d retries=%d migrations=%d",
		st.Failovers, st.Resumes, st.ReplayedRequests, st.Retries, st.Migrations)
}

// TestChaosEquivalenceNetworkFaults: latency, jitter, tear and
// bandwidth toxics rotate across the backends mid-traffic. No
// connection ever dies, so even the streams must match the control run
// byte for byte.
func TestChaosEquivalenceNetworkFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is seconds-long")
	}
	rng := rand.New(rand.NewSource(7))
	runChaosEquivalence(t, chaosConfig{
		sessions:    5,
		ops:         10,
		exactStream: true,
		waveFault: func(w int, proxies []*faultnet.Proxy) {
			for i, p := range proxies {
				if i == w%len(proxies) {
					switch rng.Intn(3) {
					case 0:
						p.Set(faultnet.Toxics{Latency: 10 * time.Millisecond, Jitter: 10 * time.Millisecond})
					case 1:
						p.Set(faultnet.Toxics{Tear: true})
					default:
						p.Set(faultnet.Toxics{BandwidthBPS: 512 << 10, Tear: true})
					}
				} else {
					p.Set(faultnet.Toxics{})
				}
			}
		},
	})
}

// TestChaosEquivalenceBackendKills: two of the three backends die
// mid-run, with connection resets and torn-mid-frame cuts sprinkled
// in. Every /rpc response must still match the control run exactly;
// streams must relay only genuine in-order frames across failovers.
func TestChaosEquivalenceBackendKills(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is seconds-long")
	}
	// Three fault schedules, one per rng seed. The subtest ids keep their
	// historical "workers=" label so they stay comparable across the
	// suite's history; the value only ever seeded the rng (backends serve
	// requests on net/http's goroutines).
	for _, seed := range []int64{1, 4, 2} {
		t.Run(fmt.Sprintf("workers=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			runChaosEquivalence(t, chaosConfig{
				sessions: 5,
				ops:      10,
				waveKill: map[int]int{4: 0, 8: 2},
				waveFault: func(w int, proxies []*faultnet.Proxy) {
					switch w {
					case 3:
						// Torn response mid-frame on a live backend: the
						// request executes and logs, the reply dies on the
						// wire, the gateway's retry dedupes.
						proxies[1].Set(faultnet.Toxics{CutAfter: 2048, Tear: true})
					case 5:
						proxies[1].Set(faultnet.Toxics{})
						proxies[1].ResetAll()
					case 6:
						proxies[rng.Intn(len(proxies))].Set(faultnet.Toxics{Latency: 15 * time.Millisecond})
					case 7:
						for _, p := range proxies {
							p.Set(faultnet.Toxics{})
						}
					}
				},
			})
		})
	}
}

// TestBreakerRecoveryViaProxy is the health-flap test: a backend dies
// at the TCP level (reset-on-dial), trips the breaker, then recovers.
// The breaker must go half-open and readmit it only after
// SuccessThreshold consecutive probe successes — and while half-open,
// client requests must never touch the backend (no thundering herd;
// the prober alone decides readmission).
func TestBreakerRecoveryViaProxy(t *testing.T) {
	backend := newTestBackend(t, t.TempDir())
	proxy, err := faultnet.New(strings.TrimPrefix(backend.url(), "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	front := "http://" + proxy.Addr()
	opts := gateway.Options{
		Backends:         []string{front},
		Retry:            protocol.Backoff{Base: 2 * time.Millisecond, Cap: 5 * time.Millisecond, Attempts: 1},
		RequestTimeout:   5 * time.Second,
		HealthInterval:   30 * time.Millisecond,
		ProbeTimeout:     500 * time.Millisecond,
		FailThreshold:    2,
		SuccessThreshold: 5, // stretches the half-open window for observation
		OpenCooldown:     100 * time.Millisecond,
		Logf:             t.Logf,
	}
	g, gw := newGateway(t, opts)
	waitFor(t, 5*time.Second, "initial ready", func() bool {
		return backendState(g, front).Ready
	})

	// The backend "dies": every new connection is reset.
	proxy.Set(faultnet.Toxics{ResetOnDial: true})
	proxy.ResetAll()
	waitFor(t, 5*time.Second, "breaker open", func() bool {
		return backendState(g, front).State == "open"
	})
	hitsAtOpen := backend.rpcHits.Load()
	if status, _ := rawPost(t, gw, encode(t, protocol.Request{Op: protocol.OpOpen, Session: "while-open"})); status != http.StatusServiceUnavailable {
		t.Fatalf("request against open breaker answered %d, want 503", status)
	}
	if got := backend.rpcHits.Load(); got != hitsAtOpen {
		t.Fatalf("open breaker leaked %d requests to the backend", got-hitsAtOpen)
	}

	// The backend recovers. The prober must walk open -> half-open ->
	// closed; requests sent during half-open stay excluded.
	proxy.Set(faultnet.Toxics{})
	sawHalfOpen := false
	waitFor(t, 10*time.Second, "half-open observed", func() bool {
		s := backendState(g, front).State
		sawHalfOpen = s == "half-open"
		return sawHalfOpen || s == "closed"
	})
	if sawHalfOpen {
		hits := backend.rpcHits.Load()
		sent := 0
		for backendState(g, front).State == "half-open" && sent < 20 {
			status, _ := rawPost(t, gw, encode(t, protocol.Request{Op: protocol.OpOpen, Session: "while-half-open"}))
			if status == http.StatusOK {
				// The breaker closed between the state check and the
				// request; the loop condition ends the probe-only phase.
				break
			}
			sent++
		}
		if sent > 0 && backend.rpcHits.Load() != hits {
			t.Fatalf("half-open breaker leaked %d client requests (probes alone decide readmission)",
				backend.rpcHits.Load()-hits)
		}
	}
	waitFor(t, 10*time.Second, "breaker closed after recovery", func() bool {
		return backendState(g, front).State == "closed"
	})
	status, body := rawPost(t, gw, encode(t, protocol.Request{Op: protocol.OpOpen, Session: "recovered"}))
	if status != http.StatusOK {
		t.Fatalf("request after recovery: %d %s", status, body)
	}
	if trips := backendState(g, front).Trips; trips == 0 {
		t.Fatal("recovery test recorded no breaker trip")
	}
	if probes := backendState(g, front).Probes; probes == 0 {
		t.Fatal("no probes counted")
	}
}
