package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"dbtouch/internal/gateway"
	"dbtouch/internal/protocol"
)

// The failover phase of fleet_durable. Each probe session logs exactly
// sc.probeHistory requests through the gateway; then the backend it is
// pinned to is killed with SIGKILL and the clock runs from the kill to
// the first OK perform through the gateway — the blackout a user feels,
// reported at reference speed (reference.go).
// The answer must equal what a session that never died would have said.

// failoverResult is what the phase observed.
type failoverResult struct {
	blackoutsMS []float64 // one per probe, in ms at reference speed
	slow        int       // probes answered later than slowOp, as measured
	stats       gateway.Stats
}

// gatewayStats reads /gatewayz.
func gatewayStats(base string) (gateway.Stats, error) {
	var st gateway.Stats
	res, err := http.Get(base + "/gatewayz")
	if err != nil {
		return st, err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// failoverPhase first gives every probe its history, all at once, then
// kills and measures one probe at a time. A probe's first request goes
// through the gateway, which pins it; the rest of its history is logged
// straight at the pinned backend (a third of the cost, and the log does
// not care who carried the request). A backend restarted for an earlier
// probe has lost its sessions, but the gateway's pin still points at it:
// killing it again sends the probe down the same failover path — transport
// failure, re-route, resume from the shared log.
func (in *inputs) failoverPhase(tp *topology, scanRef *reference) (*failoverResult, error) {
	history := in.sc.probeHistory
	// Every probe replays client 0's script, so one in-process replay
	// gives the response all of them are compared with.
	want, err := in.controlResponse(history)
	if err != nil {
		return nil, err
	}
	gs := in.scripts[0]
	front := &client{base: tp.gateway.base(), hc: newHTTPClient()}
	names := make([]string, in.sc.probes)
	victims := make([]*proc, in.sc.probes)
	for p := range names {
		names[p] = fmt.Sprintf("probe-%d", p)
		_, req := sessionRequest(gs, names[p], 0)
		if body, ok, err := front.post(req); err != nil || !ok {
			return nil, fmt.Errorf("probe %s open: %v %s", names[p], err, clip(body))
		}
	}
	st, err := gatewayStats(tp.gateway.base())
	if err != nil {
		return nil, err
	}
	for p, name := range names {
		for _, b := range tp.backends {
			if st.Sessions[name] == b.base() {
				victims[p] = b
			}
		}
		if victims[p] == nil {
			return nil, fmt.Errorf("probe %s is pinned to %q, not one of the backends", name, st.Sessions[name])
		}
	}
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for p, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			direct := &client{base: victims[p].base(), hc: newHTTPClient()}
			for i := 1; i < history; i++ {
				_, req := sessionRequest(gs, name, i)
				if body, ok, err := direct.post(req); err != nil || !ok {
					errs[p] = fmt.Errorf("probe %s request %d: %v %s", name, i, err, clip(body))
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}
	out := &failoverResult{}
	for p, name := range names {
		victim := victims[p]
		_, req := sessionRequest(gs, name, history)
		// Most of a blackout is the survivor replaying the probe's history:
		// compute, the bottleneck of the scan reference load, which says how
		// fast the host is just before the kill.
		speed, err := scanRef.speedNow()
		if err != nil {
			return nil, err
		}
		killed := time.Now()
		victim.kill()
		body, ok, err := front.post(req)
		blackout := time.Since(killed)
		if err != nil || !ok {
			return nil, fmt.Errorf("probe %s: no OK perform after killing %s: %v %s", name, victim.name, err, clip(body))
		}
		if !bytes.Equal(body, want) {
			return nil, fmt.Errorf("probe %s: response after failover differs from a session that never died\n got:  %s\n want: %s", name, clip(body), clip(want))
		}
		out.blackoutsMS = append(out.blackoutsMS, float64(blackout)/float64(time.Millisecond)*speed)
		if blackout > slowOp {
			out.slow++
		}
		if _, ok, err := front.post(protocol.Request{V: protocol.Version, Op: protocol.OpEvict, Session: name}); err != nil || !ok {
			return nil, fmt.Errorf("probe %s: evict failed: %v", name, err)
		}
		if err := victim.start(); err != nil {
			return nil, err
		}
		if err := waitBreakerClosed(tp.gateway.base(), victim, 30*time.Second); err != nil {
			return nil, err
		}
	}
	out.stats, err = gatewayStats(tp.gateway.base())
	return out, err
}

// controlResponse returns the in-process response to request number n of
// client 0's session.
func (in *inputs) controlResponse(n int) ([]byte, error) {
	mgr, err := in.newManager()
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	var body []byte
	for i := 0; i <= n; i++ {
		_, req := sessionRequest(in.scripts[0], "control", i)
		if body, err = wireExec(mgr, req); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// waitBreakerClosed waits until the restarted backend answers ready and
// the gateway routes to it again.
func waitBreakerClosed(gatewayBase string, b *proc, timeout time.Duration) error {
	if err := b.waitReady(timeout); err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, err := gatewayStats(gatewayBase)
		if err != nil {
			return err
		}
		for _, row := range st.Backends {
			if row.Addr == b.base() && row.Ready {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("gateway never readmitted %s", b.name)
}
