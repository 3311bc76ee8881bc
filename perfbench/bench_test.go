package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the harness must
// agree with.
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

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tiny runs a workload at 5% of its cardinalities for a fraction of a
// second: enough to pass through every code path of the harness.
func tiny(t *testing.T, name string, trace, wrongOracle bool) result {
	t.Helper()
	cfg := config{seed: 3, run: 300 * time.Millisecond, trace: trace, scale: 0.05, setups: 2, dir: t.TempDir(), wrongOracle: wrongOracle}
	rep, err := workloads[name](cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep.result(trace)
}

// TestEveryMetricEmitted runs each workload untraced and traced and
// checks the result against BENCHMARK.json: the same workloads, every
// listed metric with its unit and no other, outputs correct, and every
// end-to-end metric above zero.
func TestEveryMetricEmitted(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the harness does not have", w.Name)
		}
	}
	for name := range workloads {
		if !slices.Contains(names, name) {
			t.Errorf("workload %q is missing from BENCHMARK.json", name)
		}
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			res := tiny(t, name, trace, false)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s in %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestWrongOracleFails corrupts each workload's oracle and expects every
// checked operation to be counted failed.
func TestWrongOracleFails(t *testing.T) {
	for name := range workloads {
		res := tiny(t, name, true, true)
		if res.Correct || res.Metrics["ops_failed_frac"].Value <= 0 {
			t.Errorf("%s with a wrong oracle: correct %v, ops_failed_frac %v", name, res.Correct, res.Metrics["ops_failed_frac"].Value)
		}
	}
}
