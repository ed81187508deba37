package debughttp

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestListenServesPprofOnly: the debug listener answers the pprof index,
// a named profile and a short CPU profile, and nothing else.
func TestListenServesPprofOnly(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := "http://" + ln.Addr().String()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("index: status %d, body %.80q", code, body)
	}
	if code, body := get("/debug/pprof/goroutine?debug=1"); code != http.StatusOK || !strings.Contains(body, "goroutine profile:") {
		t.Fatalf("goroutine profile: status %d, body %.80q", code, body)
	}
	if code, body := get("/debug/pprof/profile?seconds=1"); code != http.StatusOK || len(body) == 0 {
		t.Fatalf("cpu profile: status %d, %d bytes", code, len(body))
	}
	for _, path := range []string{"/", "/rpc", "/healthz"} {
		if code, _ := get(path); code != http.StatusNotFound {
			t.Fatalf("GET %s on the debug listener: status %d, want 404", path, code)
		}
	}
}
