package gateway

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"net/url"
	"strings"

	"dbtouch/internal/protocol"
)

// maxProxyFrameBytes bounds one relayed binary stream frame — a
// corrupt length prefix must not make the proxy buffer gigabytes.
const maxProxyFrameBytes = 64 << 20

// handleStream proxies GET /stream with failover: frames are relayed
// only whole (a backend dying mid-frame tears the backend-side read,
// never the client-side stream), and when an attach fails, is refused
// or drops, that backend is no longer known to hold the session, so
// place resumes it (on a healthy backend) before the re-attach — the
// client keeps one uncorrupted stream across backend deaths.
//
// The encoding negotiated on the first attach is forced on every
// reconnect, so a mid-stream failover cannot flip the client's decoder.
// Frames emitted while detached are not replayed (a subscription observes
// results from the moment it attaches); what failover preserves is the
// session's state and the stream's framing.
func (g *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	session := r.URL.Query().Get("session")
	if session == "" {
		http.Error(w, "session required", http.StatusBadRequest)
		return
	}
	buffer := r.URL.Query().Get("buffer")
	accept := r.Header.Get("Accept")
	if accept == "" {
		accept = protocol.NDJSONContentType
	}
	flusher, _ := w.(http.Flusher)

	started := false  // response headers sent to the client
	contentType := "" // encoding locked in by the first attach
	var prev *backend // the previous attach's backend
	attempt := 0      // consecutive attach attempts without progress
	for {
		if r.Context().Err() != nil {
			return
		}
		b, err := g.placeStream(session, prev)
		if b == nil {
			if !started {
				http.Error(w, "gateway: no ready backend", http.StatusServiceUnavailable)
				return
			}
			if !g.retry(&attempt, true, 0) {
				return
			}
			continue
		}
		prev = b
		wantAccept := accept
		if contentType != "" {
			wantAccept = contentType
		}
		var up *http.Response
		if err == nil {
			up, err = g.openBackendStream(r.Context(), b, session, buffer, wantAccept)
		}
		if err != nil {
			if r.Context().Err() != nil {
				return
			}
			if b.noteFailure(g.opts.FailThreshold) {
				g.logf("gateway: backend %s failed on stream attach, breaker open: %v", b.base, err)
			}
			if !g.retry(&attempt, true, 0) {
				return
			}
			continue
		}
		if up.StatusCode != http.StatusOK {
			// Most likely "session not found": the backend is healthy but
			// doesn't hold the session. Past the budget, relay the refusal.
			body, _ := io.ReadAll(io.LimitReader(up.Body, 1024))
			up.Body.Close()
			if !g.retry(&attempt, true, 0) {
				if !started {
					http.Error(w, strings.TrimSpace(string(body)), up.StatusCode)
				}
				return
			}
			continue
		}
		if !started {
			contentType = up.Header.Get("Content-Type")
			w.Header().Set("Content-Type", contentType)
			w.WriteHeader(http.StatusOK)
			if flusher != nil {
				flusher.Flush()
			}
			started = true
		}
		frames := relayFrames(w, flusher, up.Body, strings.Contains(contentType, protocol.BinaryContentType))
		up.Body.Close()
		if r.Context().Err() != nil {
			return
		}
		// The upstream dropped (backend died or the session was evicted
		// there): re-attach. Forward progress resets the attempt budget;
		// attach loops that relay nothing burn it.
		if frames > 0 {
			attempt = 0
		} else if !g.retry(&attempt, true, 0) {
			return
		}
	}
}

// placeStream places the session for a stream attach under its entry
// lock. An attach that follows one on prev — failed, refused or dropped
// — means prev is no longer known to hold the session, so place resumes
// it before the re-attach.
func (g *Gateway) placeStream(session string, prev *backend) (*backend, error) {
	e := g.entry(session)
	e.mu.Lock()
	defer e.mu.Unlock()
	if prev != nil && e.b == prev {
		e.held = false
	}
	return g.place(e, session, nil, true)
}

// openBackendStream attaches to a backend's /stream for the session.
// The request context is the client's own, so a client disconnect tears
// the upstream attach down with it; there is no read deadline because
// streams are idle-friendly by design.
func (g *Gateway) openBackendStream(ctx context.Context, b *backend, session, buffer, accept string) (*http.Response, error) {
	u := b.base + "/stream?session=" + url.QueryEscape(session)
	if buffer != "" {
		u += "&buffer=" + url.QueryEscape(buffer)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", accept)
	return g.client.Do(req)
}

// relayFrames copies upstream stream bytes to the client one complete
// frame at a time, returning how many frames it forwarded. Binary
// frames are u32 LE length-prefixed; NDJSON frames are whole lines. A
// frame torn by the upstream's death (short read) is dropped entirely —
// the client's decoder only ever sees frame boundaries, which is what
// makes reconnect-and-continue byte-safe.
func relayFrames(w io.Writer, flusher http.Flusher, src io.Reader, isBinary bool) int {
	frames := 0
	br := bufio.NewReader(src)
	if isBinary {
		var hdr [4]byte
		var payload []byte
		for {
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				return frames
			}
			n := binary.LittleEndian.Uint32(hdr[:])
			if n == 0 || n > maxProxyFrameBytes {
				return frames // corrupt prefix: stop relaying this attach
			}
			if cap(payload) < int(n) {
				payload = make([]byte, n)
			}
			payload = payload[:n]
			if _, err := io.ReadFull(br, payload); err != nil {
				return frames // torn mid-frame: drop the partial frame
			}
			if _, err := w.Write(hdr[:]); err != nil {
				return frames
			}
			if _, err := w.Write(payload); err != nil {
				return frames
			}
			if flusher != nil {
				flusher.Flush()
			}
			frames++
		}
	}
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return frames // partial line (no trailing \n) is dropped
		}
		if _, err := w.Write(line); err != nil {
			return frames
		}
		if flusher != nil {
			flusher.Flush()
		}
		frames++
	}
}
