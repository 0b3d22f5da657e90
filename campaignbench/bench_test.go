package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// The self-test flies every workload on a one-cell grid, so it checks the
// benchmark's plumbing in seconds rather than its figures.

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T, root string) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func shrunk(root, workload string, trace bool) options {
	return options{workload: workload, trace: trace, root: root, workers: runtime.NumCPU(), shrink: true}
}

// TestEveryMetricPrinted runs each workload untraced and traced and checks
// that exactly the names BENCHMARK.json declares come out, with its units.
func TestEveryMetricPrinted(t *testing.T) {
	root := repoRoot(t)
	bf := loadBenchmarkFile(t, root)
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloadNames[i])
		}
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range bf.EndToEnd {
				want[m.Name] = m.Unit
			}
			if trace {
				want = map[string]string{}
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			var log bytes.Buffer
			res, err := run(context.Background(), shrunk(root, name, trace), &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					name, trace, res.Correct, res.Failed, res.Attempted, log.String())
			}
			for n, unit := range want {
				got, ok := res.Metrics[n]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", name, trace, n)
				case got.Unit != unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", name, trace, n, got.Unit, unit)
				}
			}
			for n := range res.Metrics {
				if _, ok := want[n]; !ok {
					t.Errorf("%s trace=%v: metric %s printed but not declared", name, trace, n)
				}
			}
		}
	}
}

// TestCorruptDigestFails checks that a wrong expected digest fails every
// measured pass of every workload.
func TestCorruptDigestFails(t *testing.T) {
	root := repoRoot(t)
	for _, name := range workloadNames {
		o := shrunk(root, name, false)
		o.expect = &digests{aggregates: "corrupt", results: "corrupt"}
		var log bytes.Buffer
		res, err := run(context.Background(), o, &log)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, log.String())
		}
		if res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s: corrupted digest gave correct=%v failed=%d of %d\n%s",
				name, res.Correct, res.Failed, res.Attempted, log.String())
		}
	}
}

// TestGoldenFilesParse checks the oracles the full grids read at run time.
func TestGoldenFilesParse(t *testing.T) {
	root := repoRoot(t)
	for _, name := range workloadNames {
		w, err := newWorkload(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if w.golden == "" {
			continue
		}
		if _, err := readGolden(root, w.golden); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
