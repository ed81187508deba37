package protocol_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dbtouch/internal/core"
	"dbtouch/internal/protocol"
	"dbtouch/internal/session"
)

// TestHandlerRoutes pins the status each path and method gets from the
// handler's own path switch — the ones a ServeMux holding /rpc and /stream
// gave: only the exact paths are served, and /rpc is POST only.
func TestHandlerRoutes(t *testing.T) {
	m := session.NewManager(core.DefaultConfig())
	defer m.Close()
	h := protocol.NewHTTPHandler(m)
	for _, tc := range []struct {
		method, target string
		want           int
	}{
		{http.MethodPost, "/rpc", http.StatusOK},
		{http.MethodGet, "/rpc", http.StatusMethodNotAllowed},
		{http.MethodGet, "/stream?session=nobody", http.StatusNotFound},
		{http.MethodGet, "/rpc/", http.StatusNotFound},
		{http.MethodPost, "/rpc/", http.StatusNotFound},
		{http.MethodGet, "/x", http.StatusNotFound},
		{http.MethodGet, "/", http.StatusNotFound},
		{http.MethodGet, "/healthz", http.StatusNotFound},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, strings.NewReader(`{"v":2,"op":"stats"}`)))
		if rec.Code != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.target, rec.Code, tc.want)
		}
	}
}
