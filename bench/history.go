package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// History keeps the trajectory: one append-only file per (workload,
// metric), one "unix_ts value commit" line per full run, so a regression
// is a diff of two lines and never archaeology in git log -p.
// latest.json is the newest full report, host stamp included.

func appendHistory(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "latest.json"), rep); err != nil {
		return err
	}
	for _, res := range rep.Workloads {
		wdir := filepath.Join(dir, res.Workload)
		if err := os.MkdirAll(wdir, 0o755); err != nil {
			return err
		}
		for _, set := range []metricSet{res.EndToEnd, res.PerLayer} {
			for _, name := range set.names() {
				line := fmt.Sprintf("%d %v %s\n", rep.UnixTime, set[name].Value, rep.Host.Commit)
				if err := appendLine(filepath.Join(wdir, name+".data"), line); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func appendLine(path, line string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(line); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func compareFiles(basePath, newPath string) int {
	load := func(path string) (*report, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rep := &report{}
		return rep, json.Unmarshal(data, rep)
	}
	base, err := load(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cur, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareReports(base, cur, false)
}

// compareReports prints one row per (workload, gated metric) and returns
// non-zero if any regressed. A metric is unresolved when a side lacks it,
// when its workload had failed ops or failed verification (the number
// does not describe the same work), or when a side's own repeats spread
// wider than the bound: the run was too noisy to call it unchanged,
// unless every repeat of the new side reads better than every repeat of
// the base. sameCode is the A/A rule: both sets are one tree, so nothing
// can have regressed; a difference past the bound in either direction is
// the instrument failing to resolve its own bound, reported as
// unresolved and as a non-zero exit.
func compareReports(base, cur *report, sameCode bool) int {
	if base.Host.Clients != cur.Host.Clients {
		fmt.Printf("# C differs (%d vs %d): numbers compare only at equal C\n", base.Host.Clients, cur.Host.Clients)
	}
	find := func(rep *report, name string) *result {
		for _, r := range rep.Workloads {
			if r.Workload == name {
				return r
			}
		}
		return &result{}
	}
	failedShare := func(r *result) float64 { return float64(r.Failed) / float64(max(r.Attempted, 1)) }
	fmt.Printf("%-14s %-22s %14s %14s %8s %8s  %s\n", "workload", "metric", "base", "new", "ratio", "spread", "status")
	code := 0
	for _, w := range workloadWhy {
		b, c := find(base, w.name), find(cur, w.name)
		sound := b.Correct && c.Correct
		status := "unresolved"
		if sound {
			status = "ok"
			if failedShare(c) > 0 || (sameCode && failedShare(b) > 0) {
				status, code = "regressed", 1
			}
		}
		fmt.Printf("%-14s %-22s %14.4f %14.4f %8s %8s  %s\n", w.name, "failed_share", failedShare(b), failedShare(c), "", "", status)
		sound = sound && b.Failed+c.Failed == 0
		for _, m := range slices.Concat(endToEnd, ownEndToEnd) {
			vb, okb := b.gated(m.Name)
			vc, okc := c.gated(m.Name)
			if !okb && !okc {
				continue // not a metric of this workload
			}
			noise := max(spread(b.Repeats[m.Name]), spread(c.Repeats[m.Name]))
			status, ratio := "unresolved", 0.0
			if okb && okc && sound && vb != 0 {
				ratio = vc / vb
				status = verdict(m, vb, vc)
				switch {
				case sameCode && (status == "regressed" || verdict(m, vc, vb) == "regressed"):
					status, code = "unresolved", 1
				case sameCode:
				case status == "regressed":
					code = 1
				case noise > m.Bound && !allBetter(m, b.Repeats[m.Name], c.Repeats[m.Name]):
					status = "unresolved"
				}
			}
			fmt.Printf("%-14s %-22s %14.4f %14.4f %8.4f %8.4f  %s\n", w.name, m.Name, vb, vc, ratio, noise, status)
		}
	}
	return code
}

// gated looks a gated metric up in whichever set carries it.
func (r *result) gated(name string) (float64, bool) {
	if v, ok := r.EndToEnd[name]; ok {
		return v.Value, true
	}
	v, ok := r.PerLayer[name]
	return v.Value, ok
}

// verdict applies a metric's bound: the share of the base value by which
// the new value may be worse.
func verdict(m metricDef, base, cur float64) string {
	worse := cur - base
	if m.Better == "higher" {
		worse = base - cur
	}
	if worse > m.Bound*base {
		return "regressed"
	}
	return "ok"
}

// allBetter reports whether every repeat of cur reads better than every
// repeat of base.
func allBetter(m metricDef, base, cur []float64) bool {
	if len(base) == 0 || len(cur) == 0 {
		return false
	}
	if m.Better == "lower" {
		return slices.Max(cur) < slices.Min(base)
	}
	return slices.Min(cur) > slices.Max(base)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
