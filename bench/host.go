package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostStamp records where and on what a set of numbers was measured.
// Numbers compare only at equal Clients.
type hostStamp struct {
	// NumCPU is what the benchmark and its servers may run on: 1, the CPU
	// named in ConfinedTo (main.go, confine), of the machine's MachineCPUs.
	NumCPU      int    `json:"nproc"`
	MachineCPUs int    `json:"machine_cpus"`
	ConfinedTo  string `json:"confined_to_cpu"`
	Clients     int    `json:"C"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go"`
	CPUModel    string `json:"cpu_model"`
	L2          string `json:"l2"`
	LLC         string `json:"llc"`
	Commit      string `json:"commit"`
	Seed        int64  `json:"seed"`
}

// clientCount is C: min(nproc, 4) closed-loop clients.
func clientCount() int { return min(runtime.NumCPU(), 4) }

func stampHost(root string, seed int64) hostStamp {
	h := hostStamp{
		NumCPU: runtime.NumCPU(), Clients: clientCount(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", L2: "unknown", LLC: "unknown",
		Commit: "unknown", Seed: seed, ConfinedTo: os.Getenv(confinedEnv),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			k, v, ok := strings.Cut(line, ":")
			switch {
			case !ok:
			case strings.TrimSpace(k) == "processor":
				h.MachineCPUs++
			case strings.TrimSpace(k) == "model name":
				h.CPUModel = strings.TrimSpace(v)
			}
		}
	}
	// cpu0's cache indexes: level 2 is L2, the highest level is the LLC.
	top := "0"
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, err1 := os.ReadFile(filepath.Join(d, "level"))
		size, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		lv, sz := strings.TrimSpace(string(level)), strings.TrimSpace(string(size))
		if lv == "2" {
			h.L2 = sz
		}
		if lv >= top {
			top, h.LLC = lv, sz
		}
	}
	// A checkout without git history stamps "unknown".
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			h.Commit += "+dirty"
		}
	}
	return h
}
