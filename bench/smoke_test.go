package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// workload spawns it as its reference server.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) == roleReference {
		os.Exit(referenceServer(os.Args[1]))
	}
	os.Exit(m.Run())
}

func loadBenchmarkFile(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBenchmarkFileMatchesRegistry keeps BENCHMARK.json and the tables
// in metrics.go one vocabulary: the file is what -manifest prints.
func TestBenchmarkFileMatchesRegistry(t *testing.T) {
	if got, want := loadBenchmarkFile(t), buildManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the registry; regenerate it with: go run -C bench . -manifest > BENCHMARK.json\n got:  %+v\n want: %+v", got, want)
	}
	for _, w := range workloadWhy {
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
}

// TestSmoke runs all four workloads at toy scale through the real server
// binaries, the failover phase and the traced pass, and requires every
// metric BENCHMARK.json names to be emitted with its unit and nothing
// unnamed: each end-to-end metric by every workload and never 0, each
// per-layer metric by at least one.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers; skipped under -short")
	}
	bf := loadBenchmarkFile(t)
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAll)
	var b bins
	if b.serve, b.gateway, err = buildServers(root, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	layerUnits := map[string]string{}
	for _, m := range bf.PerLayer {
		layerUnits[m.Name] = m.Unit
	}
	emitted := map[string]bool{}
	for _, w := range bf.Workloads {
		res, err := runWorkload(runOpts{
			workload: w.Name, seed: 7, seconds: 1, sc: toyScale, clients: clientCount(),
			bins: b, outDir: t.TempDir(), layers: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d of %d", w.Name, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.EndToEnd) != len(bf.EndToEnd) {
			t.Errorf("%s: emitted end-to-end metrics %v, BENCHMARK.json names %d", w.Name, res.EndToEnd.names(), len(bf.EndToEnd))
		}
		for _, m := range bf.EndToEnd {
			if v, ok := res.EndToEnd[m.Name]; !ok || v.Unit != m.Unit || v.Value == 0 {
				t.Errorf("%s: end-to-end metric %s missing, zero or not in %s: %+v", w.Name, m.Name, m.Unit, v)
			}
		}
		for name, v := range res.PerLayer {
			if unit, ok := layerUnits[name]; !ok || v.Unit != unit {
				t.Errorf("%s: emitted per-layer metric %s (%s) is not named in BENCHMARK.json", w.Name, name, v.Unit)
			}
			emitted[name] = true
		}
		for _, m := range ownEndToEnd {
			if _, gated := res.Repeats[m.Name]; gated != (res.PerLayer[m.Name].Value != 0) {
				t.Errorf("%s: %s is %+v with repeats %v", w.Name, m.Name, res.PerLayer[m.Name], res.Repeats[m.Name])
			}
		}
	}
	for name := range layerUnits {
		if !emitted[name] {
			t.Errorf("per-layer metric %s is named in BENCHMARK.json and emitted by no workload", name)
		}
	}
}

// TestFailedClientEndsRun: a client whose session cannot be set up stops
// the run, and the others, which may then never reach a first perform,
// must not leave measure waiting for them.
func TestFailedClientEndsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers; skipped under -short")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAll)
	var b bins
	if b.serve, b.gateway, err = buildServers(root, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	in, err := generate(wTouch, 7, toyScale, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.buildControls(); err != nil {
		t.Fatal(err)
	}
	spec := *in.scripts[1].setup[0].Create
	spec.Table = "no-such-table"
	in.scripts[1].setup[0].Create = &spec
	tp, err := in.startTopology(b, "0")
	if err != nil {
		t.Fatal(err)
	}
	defer tp.stop()
	done := make(chan error, 1)
	go func() {
		_, err := in.measure(tp, nil, time.Now(), 0.5)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("measure succeeded although one client's set-up fails")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("measure still waiting 20 s after a client failed")
	}
}
