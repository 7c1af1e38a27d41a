// Command perfbench is the repository benchmark. It builds its inputs from
// a seed, calls the program's layers through their public functions, times
// each operation from outside, checks every output for correctness, and
// prints one JSON result line.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload gsino-s1 --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload all --seconds 25 --trace 1
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 each untraced operation is paired with a
// traced one, and the result carries the per-layer metrics derived from the
// trace and the layers' public counters. metrics.json names the workloads
// and describes every metric.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// A run sets its workload up at least minSetups times and keeps going
// until setupBudget has passed (at most maxSetups times); setup_s is the
// median, so it stays steady when one set-up takes milliseconds.
const (
	minSetups   = 3
	maxSetups   = 100
	setupBudget = time.Second
)

// A run measures at least minOps untraced operations, even when one takes
// longer than --seconds (gsino-s1's take about 20 s), so a host slowdown
// during one operation moves the run's median by half as much.
const minOps = 2

//go:embed metrics.json
var registryJSON []byte

// digests maps "<workload>/scale<N>/seed<S>" to the SHA-256 of the report
// bytes the program must produce there.
//
//go:embed digests.json
var digestsJSON []byte

type metricDef struct {
	Name     string `json:"name"`
	Unit     string `json:"unit"`
	EndToEnd bool   `json:"end_to_end"`
}

type registry struct {
	Metrics []metricDef `json:"metrics"`
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	scale   int // 0: the workload's own scale; only the smoke test sets it
	tmp     string
}

// outcome is one workload run: operation counts and every metric's samples.
type outcome struct {
	attempted, failed int
	samples           map[string][]float64
}

func main() {
	name := flag.String("workload", "", "workload to run: gsino-s1, eco-s1, grid-s8, or all")
	seed := flag.Int64("seed", 1, "input seed (circuit generation and the ECO delta)")
	seconds := flag.Float64("seconds", 10, "measure for at least this long")
	trace := flag.Int("trace", 0, "1: also run traced operations and report per-layer metrics")
	flag.Parse()
	if err := run(*name, options{seed: *seed, seconds: *seconds, trace: *trace == 1}, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures the named workload (or all of them) and writes the report
// to out, ending with the one-line JSON result.
func run(name string, opt options, out io.Writer) error {
	reg, err := loadRegistry()
	if err != nil {
		return err
	}
	var chosen []workload
	for _, w := range workloads {
		if name == w.name || name == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	tmp, err := os.MkdirTemp(".", ".perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	opt.tmp = tmp

	values := make(map[string]any)
	var attempted, failed int
	for _, w := range chosen {
		o, err := runWorkload(context.Background(), w, reg, opt, out)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		attempted += o.attempted
		failed += o.failed
		for _, m := range reg.Metrics {
			if m.EndToEnd == opt.trace {
				continue
			}
			key := m.Name
			if len(chosen) > 1 {
				key = w.name + "/" + m.Name
			}
			values[key] = map[string]any{"value": median(o.samples[m.Name]), "unit": m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": values,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if failed > 0 {
		return fmt.Errorf("%d of %d operations failed the correctness gate", failed, attempted)
	}
	return nil
}

func loadRegistry() (registry, error) {
	var reg registry
	err := json.Unmarshal(registryJSON, &reg)
	return reg, err
}

// runWorkload sets w up, runs operations for opt.seconds (at least one),
// checks each, and prints a human-readable summary to out.
func runWorkload(ctx context.Context, w workload, reg registry, opt options, out io.Writer) (*outcome, error) {
	e := env{seed: opt.seed, scale: opt.scale, workers: min(2, runtime.NumCPU()), tmp: opt.tmp}
	if e.scale == 0 {
		e.scale = w.scale
	}
	e.jobs = e.workers
	o := &outcome{samples: make(map[string][]float64)}
	add := func(name string, v float64) { o.samples[name] = append(o.samples[name], v) }

	var f *fixture
	begin := time.Now()
	for n := 0; n < minSetups || (n < maxSetups && time.Since(begin) < setupBudget); n++ {
		if f != nil && f.close != nil {
			f.close()
		}
		t0 := time.Now()
		fx, gen, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		add("setup_s", time.Since(t0).Seconds())
		add("ibm.generate_s", gen.Seconds())
		f = fx
	}
	if f.close != nil {
		defer f.close()
	}

	key := fmt.Sprintf("%s/scale%d/seed%d", w.name, e.scale, e.seed)
	g, err := newGate(key)
	if err != nil {
		return nil, err
	}
	g.verify = f.verify
	if f.reference != nil {
		if g.ref, err = f.reference(ctx); err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
	}

	fmt.Fprintf(out, "perfbench %s\n", key)
	fmt.Fprintf(out, "machine: %s\n", machine(e))

	var plain, traced []float64
	start := time.Now()
	for n := 0; n < minOps || time.Since(start).Seconds() < opt.seconds; n++ {
		m, res, err := measure(ctx, f, nil)
		o.attempted++
		if err == nil {
			err = g.check("untraced", f.render(res), res)
		}
		if err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: operation %d: %v\n", w.name, o.attempted, err)
			continue
		}
		plain = append(plain, m.wall)
		add("wall_s", m.wall)
		add("nets_per_s", float64(f.nets)/m.wall)
		add("cpu_s", m.cpu)
		add("alloc_mb", m.allocMB)
		add("peak_rss_mb", m.peakMB)
		if !opt.trace {
			continue
		}

		tr := obs.New()
		m, res, err = measure(ctx, f, tr)
		o.attempted++
		var ss spans
		if err == nil {
			if err = g.check("traced", f.render(res), res); err == nil {
				ss, err = readTrace(tr)
			}
		}
		if err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: traced operation %d: %v\n", w.name, o.attempted, err)
			continue
		}
		traced = append(traced, m.wall)
		for k, v := range layerMetrics(res, ss, m.wall, e.workers, e.jobs) {
			add(k, v)
		}
	}
	if len(traced) > 0 {
		add("obs.trace_overhead_pct", (median(traced)/median(plain)-1)*100)
	}
	fmt.Fprintf(out, "report sha256 %s (%s)\n", g.got, g.status())
	printTable(out, reg, o, opt.trace)
	return o, nil
}

// gate is the correctness check every operation passes through.
type gate struct {
	want  string // committed digest, "" when none exists for this input
	ref   []byte // from-scratch reference report, when the workload has one
	first []byte // the run's first report: later ones must repeat it
	got   string

	// verify, when set, checks the workload's own invariants on the
	// layers' counters (see fixture.verify).
	verify func(*opResult) error
}

func newGate(key string) (*gate, error) {
	var digests map[string]string
	if err := json.Unmarshal(digestsJSON, &digests); err != nil {
		return nil, err
	}
	return &gate{want: digests[key]}, nil
}

func (g *gate) check(kind string, report []byte, res *opResult) error {
	sum := sha256.Sum256(report)
	g.got = hex.EncodeToString(sum[:])
	switch {
	case g.want != "" && g.got != g.want:
		return fmt.Errorf("%s report digest %s, want %s", kind, g.got, g.want)
	case g.ref != nil && !bytes.Equal(report, g.ref):
		return fmt.Errorf("%s report differs from the from-scratch reference run:\n%s\nwant:\n%s", kind, report, g.ref)
	case g.first != nil && !bytes.Equal(report, g.first):
		return fmt.Errorf("%s report differs from the run's first operation:\n%s\nwant:\n%s", kind, report, g.first)
	case res.art.Disk.Corrupt != 0:
		return fmt.Errorf("%d corrupt disk artifacts", res.art.Disk.Corrupt)
	}
	if g.verify != nil {
		if err := g.verify(res); err != nil {
			return fmt.Errorf("%s operation: %w", kind, err)
		}
	}
	if g.first == nil {
		g.first = report
	}
	return nil
}

func (g *gate) status() string {
	switch g.want {
	case "":
		return "no committed digest for this input; checked for repeatability"
	case g.got:
		return "matches the committed digest"
	}
	return "committed digest is " + g.want
}

// measured is one operation's resource use.
type measured struct {
	wall, cpu, allocMB, peakMB float64
}

// measure prepares and runs one operation. The heap is collected and
// returned to the OS first, so every operation starts from the same state.
func measure(ctx context.Context, f *fixture, tr *obs.Tracer) (measured, *opResult, error) {
	op, err := f.prepare(tr)
	if err != nil {
		return measured{}, nil, err
	}
	runtime.GC()
	debug.FreeOSMemory()
	alloc0, cpu0 := heapAllocs(), cpuTime()
	peak := startPeak()
	t0 := time.Now()
	res, err := op(ctx)
	wall := time.Since(t0).Seconds()
	m := measured{wall: wall, peakMB: peak.stop() / (1 << 20)}
	m.cpu = cpuTime() - cpu0
	m.allocMB = float64(heapAllocs()-alloc0) / (1 << 20)
	return m, res, err
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakSampler tracks the most memory the Go runtime held from the OS —
// mapped and not yet released — while an operation runs.
type peakSampler struct {
	stopc chan struct{}
	done  chan float64
}

func residentBytes() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64() - s[1].Value.Uint64())
}

func startPeak() *peakSampler {
	p := &peakSampler{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := residentBytes()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, residentBytes())
			case <-p.stopc:
				p.done <- max(peak, residentBytes())
				return
			}
		}
	}()
	return p
}

func (p *peakSampler) stop() float64 {
	close(p.stopc)
	return <-p.done
}

// machine renders the fields that identify where and what was measured.
// The code is identified by a digest of the sources it was built from, so
// a run on a tree with uncommitted changes does not carry its parent
// commit's id.
func machine(e env) string {
	commit := "unknown"
	if sum, err := sourceDigest("."); err == nil {
		commit = "source-sha256:" + sum
	}
	b, _ := json.Marshal(map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "commit": commit,
		"workers": e.workers, "jobs": e.jobs, "scale": e.scale, "seed": e.seed,
	})
	return string(b)
}

// sourceDigest hashes the Go sources and go.mod files of the repository
// rooted at root, the benchmark's own included.
func sourceDigest(root string) (string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil || !slices.Contains(strings.Split(string(mod), "\n"), "module repro") {
		return "", errors.New("not the repository root")
	}
	h := sha256.New()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16], err
}

func printTable(out io.Writer, reg registry, o *outcome, traced bool) {
	fmt.Fprintf(out, "%-26s %-6s %14s %4s\n", "metric", "unit", "median", "n")
	for _, endToEnd := range []bool{true, false} {
		if !endToEnd && !traced {
			break
		}
		for _, m := range reg.Metrics {
			if m.EndToEnd == endToEnd && len(o.samples[m.Name]) > 0 {
				fmt.Fprintf(out, "%-26s %-6s %14.6g %4d\n", m.Name, m.Unit, median(o.samples[m.Name]), len(o.samples[m.Name]))
			}
		}
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
