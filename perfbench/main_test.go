package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// TestRegistryMatchesBenchmark keeps metrics.json, which describes every
// metric, in step with the names and units BENCHMARK.json declares.
func TestRegistryMatchesBenchmark(t *testing.T) {
	bench := readBenchmark(t)
	reg, err := loadRegistry()
	if err != nil {
		t.Fatal(err)
	}
	var want []metricDef
	for _, m := range bench.EndToEnd {
		want = append(want, metricDef{Name: m.Name, Unit: m.Unit, EndToEnd: true})
	}
	for _, m := range bench.PerLayer {
		want = append(want, metricDef{Name: m.Name, Unit: m.Unit})
	}
	if !slices.Equal(reg.Metrics, want) {
		t.Errorf("metrics.json and BENCHMARK.json disagree:\nregistry  %v\nbenchmark %v", reg.Metrics, want)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for i, w := range bench.Workloads {
		if i >= len(names) || w.Name != names[i] {
			t.Errorf("BENCHMARK.json workload %d is %q; the benchmark runs %v", i, w.Name, names)
		}
	}
}

// TestSmoke runs each workload once at scale 16, untraced and traced, and
// checks that the correctness gate passes and that the result line carries
// every metric BENCHMARK.json names, with its unit.
func TestSmoke(t *testing.T) {
	bench := readBenchmark(t)
	for _, traced := range []bool{false, true} {
		want := bench.EndToEnd
		if traced {
			want = bench.PerLayer
		}
		for _, w := range workloads {
			var out bytes.Buffer
			if err := run(w.name, options{seed: 1, seconds: 0, trace: traced, scale: 16}, &out); err != nil {
				t.Fatalf("%s (traced %v): %v\n%s", w.name, traced, err, out.String())
			}
			if !strings.Contains(out.String(), "matches the committed digest") {
				t.Errorf("%s (traced %v): report not checked against a committed digest:\n%s", w.name, traced, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool `json:"correct"`
				Attempted, Failed int
				Metrics           map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the JSON result: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("%s (traced %v): metric %s = %+v, want a value in %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func readBenchmark(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}
