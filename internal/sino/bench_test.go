package sino

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/keff"
	"repro/internal/tech"
)

// benchSizes are the kernel-level instance sizes: small enough that one
// region solve is microseconds, the regime Phases II and III live in.
var benchSizes = []int{8, 16, 32}

// benchInstance builds a deterministic instance for kernel benchmarks. A
// loose-ish bound keeps the solver in its typical regime: a handful of
// shield insertions followed by a polish pass that removes some of them.
func benchInstance(n int, rate, kth float64, shared bool) *Instance {
	rng := rand.New(rand.NewSource(int64(n)*1009 + 7))
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = rate
	}
	segs := make([]Seg, n)
	for i := range segs {
		segs[i] = Seg{Net: i, Kth: kth, Rate: rate}
	}
	in := &Instance{
		Segs:      segs,
		Sensitive: randomSensitivity(n, rates, rng),
		Model:     keff.NewModel(tech.Default()),
	}
	if shared {
		in.Cache = keff.NewPairCacheFor(in.Model)
	}
	return in
}

func cacheArm(shared bool) string {
	if shared {
		return "cache"
	}
	return "nocache"
}

func benchName(prefix string, n int, arm string) string {
	return fmt.Sprintf("%s%d/%s", prefix, n, arm)
}

// The benchmark bodies are plain functions so the -benchjson smoke
// (benchjson_test.go) can time each (size, cache) cell standalone through
// testing.Benchmark.

// benchSolveBody measures one full greedy region solve — construct, shield
// repair, polish — on a pooled evaluator, the way every production call
// site (engine workers, the fit sweep) invokes it.
func benchSolveBody(b *testing.B, n int, shared bool) {
	in := benchInstance(n, 0.4, 0.55, shared)
	ev := NewEval()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolveWith(ev, in)
	}
}

// benchRepairBody measures the shield-insertion-only re-solve used by
// Phase III pass 1: an existing solution whose bounds tightened a little.
func benchRepairBody(b *testing.B, n int, shared bool) {
	tight, seed, _ := repairSetup(n, shared, false)
	runRepair(b, tight, seed, nil)
}

// benchWideRepairBody is the repair re-solve in Phase III's shape on a
// region-sized instance: one segment's bound tightens per re-solve. With
// known set it runs as Phase III issues it — a precomputed sensitivity
// relation on the instance and the solution's known totals, so neither
// the O(n²) relation nor the O(n·cutoff) totals are rebuilt per call.
func benchWideRepairBody(b *testing.B, n int, known bool) {
	tight, seed, k := repairSetup(n, true, true)
	if !known {
		k = nil
	} else {
		tight.Relation = NewRelation(tight.Segs, tight.Sensitive)
	}
	runRepair(b, tight, seed, k)
}

func runRepair(b *testing.B, tight *Instance, seed *Solution, k []float64) {
	ev := NewEval()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := seed.Clone()
		RepairWith(ev, tight, s, k)
	}
}

// repairSetup solves a bench instance and tightens bounds so each repair
// has real insertion work: every bound by 30%, or with one set only the
// most coupled segment's bound to 70% of its coupling, the way a Phase III
// re-solve arrives. It returns the tightened instance, the solution to
// repair, and that solution's totals.
func repairSetup(n int, shared, one bool) (*Instance, *Solution, []float64) {
	in := benchInstance(n, 0.4, 0.55, shared)
	seed, chk := Solve(in)
	tight := &Instance{Segs: append([]Seg(nil), in.Segs...), Sensitive: in.Sensitive, Model: in.Model, Cache: in.Cache}
	if !one {
		for i := range tight.Segs {
			tight.Segs[i].Kth *= 0.7
		}
		return tight, seed, chk.K
	}
	worst := 0
	for i, k := range chk.K {
		if k > chk.K[worst] {
			worst = i
		}
	}
	tight.Segs[worst].Kth = 0.7 * chk.K[worst]
	return tight, seed, chk.K
}

// benchPolishBody isolates the shield-removal polish pass: a feasible
// solution padded with redundant shields, reloaded and polished per
// iteration. Pre-evaluator this was the solver's costliest stage — one
// full O(n²) verification per removal probe.
func benchPolishBody(b *testing.B, n int, shared bool) {
	in := benchInstance(n, 0.4, 0.55, shared)
	sol, _ := Solve(in)
	padded := sol.Clone()
	for i := 0; i < 1+n/4; i++ {
		at := (i*7 + 3) % (len(padded.Tracks) + 1)
		padded.Tracks = append(padded.Tracks, 0)
		copy(padded.Tracks[at+1:], padded.Tracks[at:])
		padded.Tracks[at] = Shield
	}
	ev := NewEval()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Bind + Load + polish is the per-job shape an engine worker pays.
		ev.Bind(in)
		if err := ev.Load(padded); err != nil {
			b.Fatal(err)
		}
		ev.polish()
	}
}

// wideSegs is about the width of a full-scale ibm01 region instance,
// where Phase III's per-re-solve relation and load costs dominate.
const wideSegs = 240

// benchCell is one benchmark beyond a family's size × cache grid.
type benchCell struct {
	name string
	body func(b *testing.B)
}

// kernelBenchFamilies maps family names to bodies — shared by the
// Benchmark* entry points and the -benchjson smoke.
var kernelBenchFamilies = []struct {
	name  string
	body  func(b *testing.B, n int, shared bool)
	extra []benchCell
}{
	{"solve", benchSolveBody, nil},
	{"repair", benchRepairBody, []benchCell{
		{benchName("segs", wideSegs, "cache"), func(b *testing.B) { benchWideRepairBody(b, wideSegs, false) }},
		{benchName("segs", wideSegs, "known"), func(b *testing.B) { benchWideRepairBody(b, wideSegs, true) }},
	}},
	{"polish", benchPolishBody, nil},
}

// kernelCells lists family fam's cells: the size × cache grid, then its
// extra cells.
func kernelCells(fam int) []benchCell {
	f := kernelBenchFamilies[fam]
	var cells []benchCell
	for _, n := range benchSizes {
		for _, shared := range []bool{false, true} {
			cells = append(cells, benchCell{benchName("segs", n, cacheArm(shared)), func(b *testing.B) { f.body(b, n, shared) }})
		}
	}
	return append(cells, f.extra...)
}

func runKernelFamily(b *testing.B, fam int) {
	for _, c := range kernelCells(fam) {
		b.Run(c.name, c.body)
	}
}

// BenchmarkSINOSolve measures one full greedy region solve at kernel
// sizes, with and without a shared pair-coupling cache (the engine always
// supplies one; direct callers usually do not).
func BenchmarkSINOSolve(b *testing.B) { runKernelFamily(b, 0) }

// BenchmarkSINORepair measures the Phase III pass 1 re-solve; at wideSegs
// it also runs the known arm, the re-solve as Phase III issues it.
func BenchmarkSINORepair(b *testing.B) { runKernelFamily(b, 1) }

// BenchmarkSINOPolish measures the polish pass alone.
func BenchmarkSINOPolish(b *testing.B) { runKernelFamily(b, 2) }
