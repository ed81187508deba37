package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Process hygiene: every server the benchmark starts runs in its own
// process group and is registered here, so one call kills them all on
// every exit path — normal return, failed verification, panic, deadline.

var (
	procMu   sync.Mutex
	procLive = map[*proc]bool{}
)

// proc is one spawned dbtouch-serve or dbtouch-gateway.
type proc struct {
	name string
	bin  string
	args []string
	env  []string // added to the benchmark's own environment
	addr string
	log  string
	cmd  *exec.Cmd
}

// base is the process's HTTP root.
func (p *proc) base() string { return "http://" + p.addr }

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// buildServers compiles the real server binaries from the enclosing
// module into dir. The benchmark measures these, never in-process
// stand-ins, for every end-to-end metric.
func buildServers(root, dir string) (serve, gateway string, err error) {
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/dbtouch-serve", "./cmd/dbtouch-gateway")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("building servers: %v\n%s", err, out)
	}
	return filepath.Join(dir, "dbtouch-serve"), filepath.Join(dir, "dbtouch-gateway"), nil
}

// start launches the process in its own process group, logging to p.log.
func (p *proc) start() error {
	logf, err := os.OpenFile(p.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close()
	p.cmd = exec.Command(p.bin, p.args...)
	p.cmd.Env = append(os.Environ(), p.env...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", p.name, err)
	}
	procMu.Lock()
	procLive[p] = true
	procMu.Unlock()
	return nil
}

// kill sends SIGKILL to the process group and reaps it. Safe to repeat.
func (p *proc) kill() {
	procMu.Lock()
	live := procLive[p]
	delete(procLive, p)
	procMu.Unlock()
	if !live {
		return
	}
	syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	p.cmd.Wait()
}

// killAll kills every process still registered.
func killAll() {
	procMu.Lock()
	var ps []*proc
	for p := range procLive {
		ps = append(ps, p)
	}
	procMu.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// waitReady polls GET /healthz until the process answers 200 "ready".
func (p *proc) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if res, err := hc.Get(p.base() + "/healthz"); err == nil {
			body, _ := io.ReadAll(io.LimitReader(res.Body, 64))
			res.Body.Close()
			if res.StatusCode == http.StatusOK && strings.Contains(string(body), "ready") {
				return nil
			}
		}
		if err := syscall.Kill(p.cmd.Process.Pid, 0); err != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s never became ready on %s\n%s", p.name, p.addr, tailFile(p.log, 2048))
}

// tailFile returns the last n bytes of a log for an error message.
func tailFile(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	if len(data) > n {
		data = data[len(data)-n:]
	}
	return string(data)
}

// cpuTime is the CPU time the process has used, user and system, all
// threads: its CPU-time clock, which counts nanoseconds where
// /proc/<pid>/stat counts 10 ms ticks — a slice of half a second holds
// too few of those.
func (p *proc) cpuTime() time.Duration {
	// clock_getcpuclockid(3): the process-wide scheduler clock of a pid.
	const cpuClockSched = 2
	clock := int32(^p.cmd.Process.Pid<<3 | cpuClockSched)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// peakRSS is the process's VmHWM in bytes.
func (p *proc) peakRSS() int64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10
		}
	}
	return 0
}
