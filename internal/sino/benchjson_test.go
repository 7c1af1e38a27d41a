package sino

import (
	"encoding/json"
	"flag"
	"os"
	"testing"
)

// benchJSON enables the machine-readable bench smoke:
//
//	go test -run TestBenchJSON -benchjson BENCH_sino.json ./internal/sino
//
// It runs the solve/repair/polish kernel microbenchmarks through
// testing.Benchmark (honoring -benchtime) and writes their ns/op to the
// given file, so CI and EXPERIMENTS.md track the kernel's perf trajectory
// without scraping bench output.
var benchJSON = flag.String("benchjson", "", "write solve/repair/polish microbenchmark ns/op to this JSON file")

// benchReport is the BENCH_sino.json schema.
type benchReport struct {
	Unit       string           `json:"unit"` // always "ns/op"
	Benchmarks map[string]int64 `json:"benchmarks"`
}

func TestBenchJSON(t *testing.T) {
	if *benchJSON == "" {
		t.Skip("bench smoke disabled; enable with -benchjson <path>")
	}
	report := benchReport{Unit: "ns/op", Benchmarks: map[string]int64{}}
	for i, fam := range kernelBenchFamilies {
		for _, c := range kernelCells(i) {
			report.Benchmarks[fam.name+"/"+c.name] = testing.Benchmark(c.body).NsPerOp()
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchJSON, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d benchmark entries to %s", len(report.Benchmarks), *benchJSON)
}
