package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/ibm"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sched"
)

// rate is the sensitivity rate of the single-circuit workloads (the
// paper's 30% experiment).
const rate = 0.30

// ecoMoves is how many nets the eco-s1 delta re-places.
const ecoMoves = 8

// workload is one benchmark input family. setup builds everything an
// operation needs from the seed; it is timed as setup_s.
type workload struct {
	name  string
	scale int // circuit scale divisor
	setup func(env env) (*fixture, time.Duration, error)
}

// env is what a workload's set-up may depend on besides its code.
type env struct {
	seed    int64
	scale   int
	workers int    // engine workers (grid-s8: the whole batch's budget)
	jobs    int    // concurrent batch cells (grid-s8 only)
	tmp     string // private scratch directory inside the checkout
}

// fixture is a set-up workload. prepare does the untimed per-operation
// preparation and returns the timed operation itself.
type fixture struct {
	nets    int // nets across one operation's flows
	prepare func(tr *obs.Tracer) (func(context.Context) (*opResult, error), error)
	render  func(*opResult) []byte // the report bytes the correctness gate compares

	// reference, when set, computes by an independent path the report every
	// operation must reproduce. It runs once per benchmark run.
	reference func(context.Context) ([]byte, error)
	// verify, when set, checks what the report cannot show: the counters
	// that prove an operation did the work the workload is named for.
	verify func(*opResult) error
	close  func()
}

// opResult is what one operation returns to the measurement: the flows'
// outcomes and the public counters of the layers it called.
type opResult struct {
	outcomes []*core.Outcome
	art      artifact.Stats

	// grid-s8 only: per-cell results and start offsets from batch start
	// (taken in sched.Config.OnStart).
	cells  []sched.Result
	starts []time.Duration
}

var workloads = []workload{
	{name: "gsino-s1", scale: 1, setup: setupGSINO},
	{name: "eco-s1", scale: 1, setup: setupECO},
	{name: "grid-s8", scale: 8, setup: setupGrid},
}

// placementSeed fixes the placement every workload routes: ibm.Generate's
// nets at the command-line tools' default seed. The benchmark seed draws
// the sensitivity pattern (and eco-s1's delta) instead. With the placement
// regenerated per seed, the work itself differs by 12-16% between seeds
// (interquartile spread of alloc_mb over five seeds), more than a
// regression bound can absorb; a drawn sensitivity pattern changes the
// Phase II/III instances and the report while the work stays within 1%.
const placementSeed = 1

// generate builds a circuit with placementSeed's nets and the sensitivity
// pattern ibm.Generate draws for seed, so seed 1 is exactly the tools'
// default circuit. Both circuits are generated for every seed, so set-up
// does the same work whatever the seed.
func generate(p ibm.Profile, seed int64, scale int, rate float64) (*core.Design, *ibm.Circuit, error) {
	opt := ibm.Options{Seed: placementSeed, Scale: scale, SensRate: rate}
	ckt, err := ibm.Generate(p, opt)
	if err != nil {
		return nil, nil, err
	}
	opt.Seed = seed
	drawn, err := ibm.Generate(p, opt)
	if err != nil {
		return nil, nil, err
	}
	ckt.Nets.Sensitivity = drawn.Nets.Sensitivity
	return &core.Design{Name: p.Name, Nets: ckt.Nets, Grid: ckt.Grid, Rate: rate}, ckt, nil
}

func ibm01(e env) (*core.Design, *ibm.Circuit, time.Duration, error) {
	p, err := ibm.ProfileByName("ibm01")
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	d, ckt, err := generate(p, e.seed, e.scale, rate)
	return d, ckt, time.Since(t0), err
}

// setupGSINO: one cold GSINO run on ibm01 per operation — a fresh runner,
// a fresh in-memory artifact store and the runner's private pair cache.
func setupGSINO(e env) (*fixture, time.Duration, error) {
	d, ckt, gen, err := ibm01(e)
	if err != nil {
		return nil, 0, err
	}
	f := &fixture{nets: len(d.Nets.Nets)}
	f.prepare = func(tr *obs.Tracer) (func(context.Context) (*opResult, error), error) {
		store := artifact.NewStore(0)
		r, err := core.NewRunner(d, core.Params{Workers: e.workers, Artifacts: store, Trace: tr})
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) (*opResult, error) {
			out, err := r.RunContext(ctx, core.FlowGSINO)
			if err != nil {
				return nil, err
			}
			return &opResult{outcomes: []*core.Outcome{out}, art: store.Stats()}, nil
		}, nil
	}
	f.render = func(res *opResult) []byte {
		var b bytes.Buffer
		writeCircuitHeader(&b, ckt)
		writeFlows(&b, res.outcomes)
		return b.Bytes()
	}
	// Runner construction is part of set-up; each operation builds its own.
	if _, err := f.prepare(nil); err != nil {
		return nil, 0, err
	}
	return f, gen, nil
}

// setupECO routes the base design once and writes its artifact through to
// a disk directory; each operation then resumes the edited design from
// that directory with a fresh in-memory store.
func setupECO(e env) (*fixture, time.Duration, error) {
	d, _, gen, err := ibm01(e)
	if err != nil {
		return nil, 0, err
	}
	delta := ecoDelta(d, e.seed)
	dir, err := os.MkdirTemp(e.tmp, "eco-")
	if err != nil {
		return nil, 0, err
	}
	f := &fixture{nets: len(d.Nets.Nets), close: func() { os.RemoveAll(dir) }}
	fail := func(err error) (*fixture, time.Duration, error) {
		f.close()
		return nil, 0, err
	}

	disk, err := artifact.NewDiskStore(dir, nil)
	if err != nil {
		return fail(err)
	}
	base, err := core.NewRunner(d, core.Params{Workers: e.workers, Artifacts: artifact.NewStore(0).WithDisk(disk)})
	if err != nil {
		return fail(err)
	}
	if _, err := base.Run(core.FlowIDNO); err != nil {
		return fail(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return fail(err)
	}
	if len(files) != 1 {
		return fail(fmt.Errorf("eco-s1: base run left %d files in the artifact directory, want 1", len(files)))
	}
	baseFile := files[0].Name()

	f.prepare = func(tr *obs.Tracer) (func(context.Context) (*opResult, error), error) {
		// The previous operation wrote the edited design's artifact through;
		// left in place it would turn this operation into a plain disk hit.
		if err := keepOnly(dir, baseFile); err != nil {
			return nil, err
		}
		return func(ctx context.Context) (*opResult, error) {
			disk, err := artifact.NewDiskStore(dir, tr)
			if err != nil {
				return nil, err
			}
			store := artifact.NewStore(0).WithDisk(disk)
			r, err := core.NewECORunner(d, delta, core.Params{Workers: e.workers, Artifacts: store, Trace: tr})
			if err != nil {
				return nil, err
			}
			out, err := r.RunContext(ctx, core.FlowIDNO)
			if err != nil {
				return nil, err
			}
			return &opResult{outcomes: []*core.Outcome{out}, art: store.Stats()}, nil
		}, nil
	}
	// A runner that misses the base artifact routes the edited design from
	// scratch and, by design, reports the same bytes; only the counters
	// tell that the operation did not resume.
	f.verify = func(res *opResult) error {
		eco := res.outcomes[0].ECO
		if res.art.Disk.Hits < 1 || eco.NetsReused+eco.NetsRerouted == 0 {
			return fmt.Errorf("did not resume from the base artifact: %d disk hits, %d nets reused, %d rerouted",
				res.art.Disk.Hits, eco.NetsReused, eco.NetsRerouted)
		}
		return nil
	}
	f.render = func(res *opResult) []byte {
		var b bytes.Buffer
		fmt.Fprintf(&b, "eco: %d removed, %d moved, %d added\n", len(delta.Remove), len(delta.Move), len(delta.Add))
		writeFlows(&b, res.outcomes)
		return b.Bytes()
	}
	f.reference = func(ctx context.Context) ([]byte, error) {
		edited, err := delta.Apply(d.Nets)
		if err != nil {
			return nil, err
		}
		r, err := core.NewRunner(&core.Design{Name: d.Name, Nets: edited, Grid: d.Grid, Rate: d.Rate}, core.Params{Workers: e.workers})
		if err != nil {
			return nil, err
		}
		out, err := r.RunContext(ctx, core.FlowIDNO)
		if err != nil {
			return nil, err
		}
		return f.render(&opResult{outcomes: []*core.Outcome{out}}), nil
	}
	return f, gen, nil
}

// ecoDelta draws ecoMoves distinct multi-pin nets from the seed and moves
// each of their pins by at most half a region in x and y, clamped to the
// chip.
func ecoDelta(d *core.Design, seed int64) artifact.Delta {
	rng := rand.New(rand.NewSource(seed ^ 0x6563_6f64_656c_7461)) // "ecodelta": a stream apart from the circuit's
	g := d.Grid
	clamp := func(v, hi geom.Micron) geom.Micron { return max(0, min(v, hi)) }
	var delta artifact.Delta
	picked := make(map[int]bool)
	for len(delta.Move) < ecoMoves && len(picked) < len(d.Nets.Nets) {
		id := rng.Intn(len(d.Nets.Nets))
		if picked[id] {
			continue
		}
		picked[id] = true
		src := d.Nets.Nets[id].Pins
		if len(src) < 2 {
			continue
		}
		pins := make([]netlist.Pin, len(src))
		for i, p := range src {
			dx := geom.Micron(rng.Float64()-0.5) * g.CellW
			dy := geom.Micron(rng.Float64()-0.5) * g.CellH
			pins[i] = netlist.Pin{Loc: geom.MicronPoint{X: clamp(p.Loc.X+dx, g.ChipW()), Y: clamp(p.Loc.Y+dy, g.ChipH())}}
		}
		delta.Move = append(delta.Move, artifact.Move{ID: id, Pins: pins})
	}
	return delta
}

// keepOnly removes every entry of dir except the named file.
func keepOnly(dir, name string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if ent.Name() != name {
			if err := os.RemoveAll(filepath.Join(dir, ent.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// setupGrid builds the cmd/tables evaluation grid: ibm01–06 × two rates ×
// three flows. Each operation runs it on the batch scheduler with a fresh
// shared in-memory artifact store.
func setupGrid(e env) (*fixture, time.Duration, error) {
	var cells []sched.Cell
	var gen time.Duration
	nets := 0
	for _, p := range ibm.Profiles() {
		for _, rate := range []float64{0.3, 0.5} {
			t0 := time.Now()
			d, _, err := generate(p, e.seed, e.scale, rate)
			gen += time.Since(t0)
			if err != nil {
				return nil, 0, err
			}
			for _, fl := range []core.Flow{core.FlowIDNO, core.FlowISINO, core.FlowGSINO} {
				cells = append(cells, sched.Cell{Design: d, Flow: fl})
				nets += len(d.Nets.Nets)
			}
		}
	}
	f := &fixture{nets: nets}
	f.prepare = func(tr *obs.Tracer) (func(context.Context) (*opResult, error), error) {
		return func(ctx context.Context) (*opResult, error) {
			store := artifact.NewStore(0)
			starts := make([]time.Duration, len(cells))
			t0 := time.Now()
			results, err := sched.Run(ctx, cells, sched.Config{
				Jobs: e.jobs, Workers: e.workers, Artifacts: store, Trace: tr,
				OnStart: func(i, _ int) { starts[i] = time.Since(t0) },
			})
			if err == nil {
				err = sched.FirstError(results)
			}
			if err != nil {
				return nil, err
			}
			res := &opResult{art: store.Stats(), cells: results, starts: starts}
			for _, r := range results {
				res.outcomes = append(res.outcomes, r.Outcome)
			}
			return res, nil
		}, nil
	}
	f.render = func(res *opResult) []byte {
		set := report.NewSet()
		for _, o := range res.outcomes {
			set.Add(o)
		}
		// cmd/tables' stdout; writes to a bytes.Buffer cannot fail.
		var b bytes.Buffer
		for _, table := range []func(io.Writer) error{set.Table1, set.Table2, set.Table3, set.Deltas} {
			b.WriteByte('\n')
			table(&b)
		}
		return b.Bytes()
	}
	return f, gen, nil
}

// writeCircuitHeader and writeFlows reproduce cmd/gsino's -notime output,
// so a report digest can be checked against the command line tool.
func writeCircuitHeader(b *bytes.Buffer, ckt *ibm.Circuit) {
	fmt.Fprintf(b, "%s: %d nets, %dx%d regions (HC=%d VC=%d), rate %.0f%%, scale %d\n",
		ckt.Profile.Name, len(ckt.Nets.Nets), ckt.Grid.Cols, ckt.Grid.Rows, ckt.Grid.HC, ckt.Grid.VC,
		rate*100, ckt.Scale)
}

func writeFlows(b *bytes.Buffer, outs []*core.Outcome) {
	fmt.Fprintf(b, "%-7s %10s %8s %10s %14s %9s %8s %9s\n",
		"flow", "violations", "viol%", "avgWL(um)", "area(um x um)", "area+%", "shields", "runtime")
	var base *core.Outcome
	for _, out := range outs {
		if out.Flow == core.FlowIDNO {
			base = out
		}
		areaPct := "-"
		if base != nil && out.Flow != core.FlowIDNO {
			areaPct = fmt.Sprintf("%.2f%%", out.AreaOverheadPct(base))
		}
		fmt.Fprintf(b, "%-7s %10d %7.2f%% %10.1f %14s %9s %8d %9s\n",
			out.Flow, out.Violations, out.ViolationPct, float64(out.AvgWL),
			out.Area.String(), areaPct, out.Shields, "-")
		if out.Flow == core.FlowGSINO && out.Unfixable > 0 {
			fmt.Fprintf(b, "        (GSINO: %d violations unfixable at the K floor)\n", out.Unfixable)
		}
	}
}
