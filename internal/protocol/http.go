package protocol

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"dbtouch/internal/core"
)

// handleWithTimeout routes one request, bounding its wall-clock time
// when d > 0. On timeout the execution is abandoned (it finishes in the
// background, on the runner it started on, under the session's own
// serialization) and the client gets an overloaded envelope — the
// request may still take effect, which is exactly the lost-response case
// ReqID dedupe exists for.
func handleWithTimeout(r Router, req Request, d time.Duration) Response {
	if d <= 0 {
		resp, _ := handleRecovered(r, req)
		return resp
	}
	run := takeRunner()
	run.deadline.Reset(d)
	run.jobs <- rpcJob{r, req}
	select {
	case resp := <-run.reply:
		run.deadline.Stop()
		if run.panicked {
			close(run.jobs)
		} else {
			run.release()
		}
		return resp
	case <-run.deadline.C:
		// Abandoned: the runner still owes a reply, so it must never serve
		// another request — a late answer would land on someone else's
		// connection. Closing jobs lets it exit once the execution returns.
		close(run.jobs)
		resp := Overloadedf("%s: request exceeded the server's %v rpc deadline", req.Op, d)
		resp.V = req.V
		return resp
	}
}

// handleRecovered is r.HandleRequest behind the wire's last guard. A
// runner goroutine has no net/http recover above it, so a panicking
// handler would take the process — every session on the backend — down
// with it; instead the panic is reported on stderr and the client gets a
// plain failed envelope in the version it spoke. Not overloaded: retrying
// the request that hit a bug is not the cure.
func handleRecovered(r Router, req Request) (resp Response, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "protocol: panic serving %s: %v\n%s", req.Op, p, debug.Stack())
			resp = Errorf("%s: internal error", req.Op)
			resp.V = req.V
			panicked = true
		}
	}()
	return r.HandleRequest(req), false
}

// maxIdleRunners bounds the parked runners kept for reuse. Runners past
// it exit when released, so a burst costs goroutines only while it lasts.
const maxIdleRunners = 32

// rpcJob is one bounded request handed to a runner.
type rpcJob struct {
	r   Router
	req Request
}

// rpcRunner is a reusable goroutine executing deadline-bounded requests
// off the connection's goroutine, so a request that outlives its
// deadline can be abandoned without killing it. A fresh goroutine per
// request would start on a minimum stack and grow it by copying all the
// way down the kernel's call chain every time; a parked runner keeps the
// stack it grew, and carries the one timer and reply channel its
// requests reuse.
type rpcRunner struct {
	jobs     chan rpcJob   // unbuffered; closed to retire the runner
	reply    chan Response // 1-slot, so an abandoned runner never blocks
	deadline *time.Timer
	// panicked is set by the runner before it replies from a recovered
	// panic; the handler retires such a runner instead of parking it.
	panicked bool
}

// idleRunners is the process-wide list of parked runners, most recently
// used last. It is a plain bounded list rather than a sync.Pool: a
// runner the GC dropped would strand its goroutine.
var idleRunners struct {
	sync.Mutex
	list []*rpcRunner
}

// takeRunner pops the warmest parked runner or starts a new one.
func takeRunner() *rpcRunner {
	idleRunners.Lock()
	if n := len(idleRunners.list); n > 0 {
		run := idleRunners.list[n-1]
		idleRunners.list = idleRunners.list[:n-1]
		idleRunners.Unlock()
		return run
	}
	idleRunners.Unlock()
	run := &rpcRunner{
		jobs:     make(chan rpcJob),
		reply:    make(chan Response, 1),
		deadline: time.NewTimer(time.Hour),
	}
	run.deadline.Stop()
	go func() {
		for job := range run.jobs {
			var resp Response
			resp, run.panicked = handleRecovered(job.r, job.req)
			run.reply <- resp
		}
	}()
	return run
}

// release parks a runner whose reply was consumed, or retires it when
// the idle list is full.
func (run *rpcRunner) release() {
	idleRunners.Lock()
	if len(idleRunners.list) < maxIdleRunners {
		idleRunners.list = append(idleRunners.list, run)
		idleRunners.Unlock()
		return
	}
	idleRunners.Unlock()
	close(run.jobs)
}

// ErrOverloaded is the client-side face of server admission control: a
// request answered 503/overloaded wraps it, so callers back off with
// errors.Is(err, protocol.ErrOverloaded) and retry after the hinted
// delay.
var ErrOverloaded = errors.New("protocol: server overloaded")

// MaxRequestBytes bounds one /rpc request body, at the server and at the
// gateway: gestures and specs are tiny, a 1000-row append is ~30 KB.
const MaxRequestBytes = 1 << 20

// maxResponseBytes bounds one decoded response on the client side.
// Responses carry whole result batches (a long gesture is tens of
// thousands of frames), so the bound is generous — it exists to keep a
// broken server from exhausting client memory, not to size payloads. A
// variable so that tests can reach it.
var maxResponseBytes int64 = 64 << 20

// maxStreamBuffer caps the client-requested /stream ring size: the
// buffer is allocated up front, so an unbounded query parameter would
// let one request exhaust server memory.
const maxStreamBuffer = 1 << 16

// maxBinaryBatch caps how many queued results one binary frame coalesces:
// the first result is taken blocking, then TryNext drains whatever has
// already accumulated, so a fast producer amortizes the frame header over
// thousands of values while an idle session still flushes every result
// immediately.
const maxBinaryBatch = 4096

// Router handles decoded protocol requests. session.Manager implements
// it; tests may substitute fakes.
type Router interface {
	HandleRequest(Request) Response
}

// Subscriber is the optional streaming side of a Router: it opens a
// bounded result stream on a session. session.Manager implements it.
type Subscriber interface {
	SubscribeSession(id string, buffer int) (*core.ResultStream, error)
}

// handlerConfig collects NewHTTPHandler's options.
type handlerConfig struct {
	rpcTimeout time.Duration
	admitting  func() bool
}

// HandlerOption configures NewHTTPHandler.
type HandlerOption func(*handlerConfig)

// WithRPCTimeout bounds one /rpc request's wall-clock execution: past d
// the handler answers 503 (overloaded envelope, Retry-After stamped)
// and abandons the slow execution to finish in the background — the
// session's own locks keep that safe, and the connection is freed so a
// stuck request cannot wedge the serving goroutine's client. Zero
// disables the bound. /stream is never bounded (streams are long-lived
// by design).
func WithRPCTimeout(d time.Duration) HandlerOption {
	return func(c *handlerConfig) { c.rpcTimeout = d }
}

// WithAdmitGate installs an admission gate consulted before
// session-creating ops (open, resume): while fn reports false — the
// server is draining — those requests are answered 503 + Retry-After so
// a gateway or retrying client places the session elsewhere. In-flight
// sessions keep working; only new arrivals are turned away.
func WithAdmitGate(fn func() bool) HandlerOption {
	return func(c *handlerConfig) { c.admitting = fn }
}

// ReadRequestBody reads one /rpc body for a handler, or answers the
// request itself and reports false. A body past MaxRequestBytes — by its
// Content-Length or by running over chunked — is refused whole with 413
// and a failed envelope naming the limit, never clipped and decoded; a
// body that cannot be read is 400. A declared Content-Length is read in
// one exact read instead of io.ReadAll's regrowing buffer.
func ReadRequestBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	return readRequestBody(w, req, nil)
}

// readRequestBody is ReadRequestBody reading a declared-length body into
// buf when it has room.
func readRequestBody(w http.ResponseWriter, req *http.Request, buf []byte) ([]byte, bool) {
	var (
		body []byte
		err  error
		over *http.MaxBytesError
	)
	switch {
	case req.ContentLength > MaxRequestBytes:
		err = errRequestTooLarge
	case req.ContentLength >= 0:
		if int64(cap(buf)) < req.ContentLength {
			buf = make([]byte, req.ContentLength)
		}
		body = buf[:req.ContentLength]
		_, err = io.ReadFull(req.Body, body)
	default:
		body, err = io.ReadAll(http.MaxBytesReader(w, req.Body, MaxRequestBytes))
		if errors.As(err, &over) {
			err = errRequestTooLarge
		}
	}
	switch {
	case errors.Is(err, errRequestTooLarge):
		data, _ := EncodeResponse(Errorf("%v", err))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusRequestEntityTooLarge)
		w.Write(data)
		return nil, false
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

var errRequestTooLarge = fmt.Errorf("protocol: request body exceeds the %d-byte limit", MaxRequestBytes)

// requestBufs holds the buffers /rpc reads bodies into: decodeRequest
// copies a body into the one string it walks, so the buffer goes back
// as soon as the request is decoded.
var requestBufs = sync.Pool{New: func() any { return new([]byte) }}

// responseBufs holds the buffers WriteResponse renders into, so an
// answered perform leaves no body behind for the collector. A buffer
// grown past maxPooledResponse (a rare huge answer) is dropped instead.
var responseBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResponse = 1 << 20

// WriteResponse writes resp as the answer to one /rpc request, rendered
// as EncodeResponse renders it. Admission control speaks HTTP: an
// overloaded envelope goes out as 503 plus a Retry-After hint
// (DefaultRetryAfterSec when resp names none), with the full envelope
// still in the body.
func WriteResponse(w http.ResponseWriter, resp Response) {
	w.Header().Set("Content-Type", "application/json")
	if resp.V < 1 || resp.V > Version {
		resp.V = Version
	}
	buf := responseBufs.Get().(*[]byte)
	defer func() {
		if cap(*buf) <= maxPooledResponse {
			responseBufs.Put(buf)
		}
	}()
	data, ok := appendResponse((*buf)[:0], &resp)
	if ok {
		*buf = data
	} else {
		var err error
		if data, err = json.Marshal(resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	if resp.Overloaded {
		ra := resp.RetryAfter
		if ra <= 0 {
			ra = DefaultRetryAfterSec
		}
		w.Header().Set("Retry-After", strconv.Itoa(ra))
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	w.Write(data)
}

// NewHTTPHandler serves the wire protocol over HTTP:
//
//	POST /rpc                            one Request in, one Response out
//	GET  /stream?session=ID[&buffer=N]   results as NDJSON frames, flushed
//	                                     as the session emits them, until
//	                                     the client disconnects
//
// The stream endpoint requires the router to implement Subscriber. Any
// other path is 404. The handler matches the path itself, with no
// ServeMux: it is the whole of dbtouch-serve's routing but /healthz.
func NewHTTPHandler(r Router, opts ...HandlerOption) http.Handler {
	var cfg handlerConfig
	for _, o := range opts {
		o(&cfg)
	}
	rpc := func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		buf := requestBufs.Get().(*[]byte)
		body, ok := readRequestBody(w, req, *buf)
		if !ok {
			requestBufs.Put(buf)
			return
		}
		decoded, err := decodeRequest(body)
		*buf = body[:0]
		requestBufs.Put(buf)
		var resp Response
		switch {
		case err != nil:
			resp = Errorf("%v", err)
		case cfg.admitting != nil && OpensSession(decoded.Op) && !cfg.admitting():
			// A draining server places no session on itself; performs on
			// live sessions, appends and stats keep flowing until shutdown.
			resp = Overloadedf("%s: server is draining; retry against another backend", decoded.Op)
			resp.V = decoded.V
		default:
			resp = handleWithTimeout(r, decoded, cfg.rpcTimeout)
		}
		WriteResponse(w, resp)
	}
	stream := func(w http.ResponseWriter, req *http.Request) {
		sub, ok := r.(Subscriber)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusNotImplemented)
			return
		}
		id := req.URL.Query().Get("session")
		buffer, _ := strconv.Atoi(req.URL.Query().Get("buffer"))
		if buffer > maxStreamBuffer {
			buffer = maxStreamBuffer
		}
		stream, err := sub.SubscribeSession(id, buffer)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		defer stream.Close()
		flusher, canFlush := w.(http.Flusher)
		// Content negotiation through the version gate: a v2 client asks
		// for the binary columnar encoding via Accept; everyone else gets
		// the v1 NDJSON frames unchanged. The response Content-Type tells
		// the client which decoder won.
		binary := strings.Contains(req.Header.Get("Accept"), BinaryContentType)
		if binary {
			w.Header().Set("Content-Type", BinaryContentType)
		} else {
			w.Header().Set("Content-Type", NDJSONContentType)
		}
		if canFlush {
			flusher.Flush()
		}
		// Unblock Next when the client goes away.
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-req.Context().Done():
				stream.Close()
			case <-done:
			}
		}()
		if binary {
			var buf []byte
			batch := make([]core.Result, 0, 64)
			for {
				result, ok := stream.Next()
				if !ok {
					return
				}
				// Coalesce whatever the session has already queued into one
				// columnar frame; an idle stream still ships frame-per-result.
				batch = append(batch[:0], result)
				for len(batch) < maxBinaryBatch {
					r, ok := stream.TryNext()
					if !ok {
						break
					}
					batch = append(batch, r)
				}
				buf = AppendBinaryResults(buf[:0], id, 0, batch)
				if _, err := w.Write(buf); err != nil {
					return
				}
				if canFlush {
					flusher.Flush()
				}
			}
		}
		var line []byte
		for {
			result, ok := stream.Next()
			if !ok {
				return
			}
			frame := FrameResult(result)
			line, err = appendFrameLine(line[:0], &frame)
			if err != nil {
				return
			}
			if _, err := w.Write(line); err != nil {
				return
			}
			if canFlush {
				flusher.Flush()
			}
		}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/rpc":
			rpc(w, req)
		case "/stream":
			stream(w, req)
		default:
			http.NotFound(w, req)
		}
	})
}

// Client speaks the wire protocol to a dbtouch-serve endpoint — the thin
// half of the remote deployment: it holds no data, only descriptions of
// intent and the frames that come back.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTPClient overrides http.DefaultClient when set.
	HTTPClient *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Do sends one request, once, and decodes the server's response
// envelope. A transport-level failure returns an error; a server-side
// failure comes back inside the Response (OK=false) wrapped as an error
// too; an overloaded answer (503 + Retry-After) wraps ErrOverloaded and
// is the caller's to retry; a Gone failure marks a session the server no
// longer holds, which the caller may bring back with OpResume.
func (c *Client) Do(req Request) (Response, error) {
	data, err := EncodeRequest(req)
	if err != nil {
		return Response{}, err
	}
	httpResp, err := c.httpClient().Post(c.Base+"/rpc", "application/json", bytes.NewReader(data))
	if err != nil {
		return Response{}, err
	}
	defer httpResp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(httpResp.Body, maxResponseBytes+1))
	if err != nil {
		return Response{}, err
	}
	if int64(len(body)) > maxResponseBytes {
		// Refused whole, never clipped and decoded.
		return Response{}, fmt.Errorf("protocol: response body exceeds the %d-byte limit", maxResponseBytes)
	}
	resp, err := DecodeResponse(body)
	if err != nil {
		return Response{}, err
	}
	if resp.Overloaded || httpResp.StatusCode == http.StatusServiceUnavailable {
		ra := resp.RetryAfter
		if ra <= 0 {
			ra = DefaultRetryAfterSec
		}
		return resp, fmt.Errorf("%w (retry after %ds): %s", ErrOverloaded, ra, resp.Error)
	}
	if !resp.OK {
		return resp, fmt.Errorf("protocol: server: %s", resp.Error)
	}
	return resp, nil
}

// FrameStream iterates result frames from a /stream connection in
// whichever encoding the server chose; ContentType records the winner.
// Next returns io.EOF when the server closes the stream cleanly.
type FrameStream struct {
	// ContentType is the negotiated encoding: BinaryContentType or
	// NDJSONContentType.
	ContentType string

	body io.ReadCloser
	bin  *BinaryScanner
	dec  *json.Decoder
}

// Next returns the next result frame or io.EOF at a clean end of stream.
func (fs *FrameStream) Next() (ResultFrame, error) {
	if fs.bin != nil {
		return fs.bin.Next()
	}
	var f ResultFrame
	if err := fs.dec.Decode(&f); err != nil {
		return ResultFrame{}, err
	}
	return f, nil
}

// Close releases the underlying connection.
func (fs *FrameStream) Close() error { return fs.body.Close() }

// OpenStream opens the session's result stream with the given Accept
// preference and wires up the decoder the server chose. Most callers use
// Client.Stream, which wraps this in the callback loop; tests use it
// directly to pin negotiation outcomes.
func (c *Client) OpenStream(ctx context.Context, session string, buffer int, accept string) (*FrameStream, error) {
	u := c.Base + "/stream?session=" + url.QueryEscape(session)
	if buffer > 0 {
		u += "&buffer=" + strconv.Itoa(buffer)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", accept)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		resp.Body.Close()
		return nil, fmt.Errorf("protocol: stream: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	fs := &FrameStream{ContentType: resp.Header.Get("Content-Type"), body: resp.Body}
	if strings.Contains(fs.ContentType, BinaryContentType) {
		fs.bin = NewBinaryScanner(resp.Body)
	} else {
		fs.dec = json.NewDecoder(resp.Body)
	}
	return fs, nil
}
