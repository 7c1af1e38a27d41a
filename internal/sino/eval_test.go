package sino

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/keff"
	"repro/internal/tech"
)

// randomSolution builds a structurally valid solution: a random permutation
// of all segments with shields sprinkled at random positions.
func randomSolution(n int, shieldFrac float64, rng *rand.Rand) *Solution {
	tracks := rng.Perm(n)
	s := &Solution{Tracks: tracks}
	extra := int(shieldFrac * float64(n))
	for i := 0; i <= extra; i++ {
		at := rng.Intn(len(s.Tracks) + 1)
		s.Tracks = append(s.Tracks, 0)
		copy(s.Tracks[at+1:], s.Tracks[at:])
		s.Tracks[at] = Shield
	}
	return s
}

// assertEvalMatchesVerify compares every maintained quantity against the
// brute-force oracle, requiring exact bits on the coupling totals.
func assertEvalMatchesVerify(t *testing.T, in *Instance, e *Eval, ctx string) {
	t.Helper()
	cur := e.Solution()
	chk := in.Verify(cur)
	if chk.Structural != nil {
		t.Fatalf("%s: evaluator produced structurally invalid solution: %v", ctx, chk.Structural)
	}
	for i := range in.Segs {
		if math.Float64bits(e.K(i)) != math.Float64bits(chk.K[i]) {
			t.Fatalf("%s: segment %d total K mismatch: evaluator %v (bits %x), Verify %v (bits %x)",
				ctx, i, e.K(i), math.Float64bits(e.K(i)), chk.K[i], math.Float64bits(chk.K[i]))
		}
	}
	if e.CapPairs() != len(chk.CapPairs) {
		t.Fatalf("%s: cap-pair count mismatch: evaluator %d, Verify %d", ctx, e.CapPairs(), len(chk.CapPairs))
	}
	if e.Feasible() != chk.Feasible() {
		t.Fatalf("%s: feasibility mismatch: evaluator %v, Verify %v", ctx, e.Feasible(), chk.Feasible())
	}
	if e.NumShields() != cur.NumShields() || e.NumTracks() != cur.NumTracks() {
		t.Fatalf("%s: track accounting mismatch: %d/%d tracks, %d/%d shields",
			ctx, e.NumTracks(), cur.NumTracks(), e.NumShields(), cur.NumShields())
	}
	if got := e.Check(); !reflect.DeepEqual(got, chk) {
		t.Fatalf("%s: Check mismatch:\nevaluator %+v\nVerify    %+v", ctx, got, chk)
	}
}

// TestEvalMatchesVerifyOnEditScripts replays random edit scripts — shield
// insertions and removals, adjacent and arbitrary swaps, relocations, and
// mark/rollback cycles — through the incremental evaluator, asserting
// after every operation that per-segment K totals (exact bits), the
// cap-pair count, and feasibility match a fresh brute-force Verify of the
// same solution.
func TestEvalMatchesVerifyOnEditScripts(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 8, 13, 20, 28, 34, 40}
	rates := []float64{0.1, 0.3, 0.5, 0.8}
	// bg 0 keeps the default background return (the window spans these
	// small layouts whole); bg 2 shrinks the cutoff so large instances
	// exercise the truly windowed per-track recompute path.
	for _, bg := range []int{0, 2} {
		for _, n := range sizes {
			for _, rate := range rates {
				seed := int64(n)*100 + int64(rate*10)
				in := testInstance(n, rate, 0.55, seed)
				if bg > 0 {
					in.Model.BackgroundReturn = bg
				}
				runEditScript(t, in, n, rate, seed)
			}
		}
	}
}

// runEditScript drives one randomized edit script through an evaluator,
// checking it against the oracle after every operation.
func runEditScript(t *testing.T, in *Instance, n int, rate float64, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed * 31))
	e := NewEval()
	e.Bind(in)
	if err := e.Load(randomSolution(n, rate, rng)); err != nil {
		t.Fatalf("n=%d rate=%g: load: %v", n, rate, err)
	}
	assertEvalMatchesVerify(t, in, e, "after load")

	steps := 50
	if testing.Short() {
		steps = 15
	}
	for step := 0; step < steps; step++ {
		randomEdit(t, e, rng)
		assertEvalMatchesVerify(t, in, e, "after step")
	}
}

// randomEdit applies one random edit-script operation to e. The draws
// depend only on rng and e's state, so two evaluators in the same state
// fed identically seeded streams apply identical scripts.
func randomEdit(t *testing.T, e *Eval, rng *rand.Rand) {
	t.Helper()
	nt := e.NumTracks()
	switch rng.Intn(6) {
	case 0:
		e.InsertShield(rng.Intn(nt + 1))
	case 1:
		if e.NumShields() == 0 {
			return
		}
		var shields []int
		for p, v := range e.tracks {
			if v == Shield {
				shields = append(shields, p)
			}
		}
		e.RemoveShield(shields[rng.Intn(len(shields))])
	case 2:
		if nt < 2 {
			return
		}
		e.SwapAdjacent(rng.Intn(nt - 1))
	case 3:
		if nt < 2 {
			return
		}
		e.swapAny(rng.Intn(nt), rng.Intn(nt))
	case 4: // relocate
		if nt < 2 {
			return
		}
		v := e.removeAt(rng.Intn(nt))
		e.insertAt(rng.Intn(e.NumTracks()+1), v)
	case 5: // probe and roll back, like a polish trial
		before := e.Solution()
		e.mark()
		e.InsertShield(rng.Intn(nt + 1))
		if e.NumTracks() >= 2 {
			e.SwapAdjacent(rng.Intn(e.NumTracks() - 1))
		}
		e.rollback()
		if !reflect.DeepEqual(e.Solution(), before) {
			t.Fatalf("rollback did not restore tracks")
		}
	}
}

// assertSameEvalState requires two evaluators bound to the same instance
// to hold identical state: tracks, derived arrays, counters, and totals
// to the bit.
func assertSameEvalState(t *testing.T, a, b *Eval, ctx string) {
	t.Helper()
	if !reflect.DeepEqual(a.tracks, b.tracks) || !reflect.DeepEqual(a.pos, b.pos) ||
		!reflect.DeepEqual(a.layout, b.layout) || !reflect.DeepEqual(a.shields, b.shields) {
		t.Fatalf("%s: track state differs:\nfull  %v\nknown %v", ctx, a.tracks, b.tracks)
	}
	if a.capPairs != b.capPairs || a.nShields != b.nShields || a.nOver != b.nOver {
		t.Fatalf("%s: counters differ: full cap %d shields %d over %d, known cap %d shields %d over %d",
			ctx, a.capPairs, a.nShields, a.nOver, b.capPairs, b.nShields, b.nOver)
	}
	if len(a.k) != len(b.k) {
		t.Fatalf("%s: %d vs %d totals", ctx, len(a.k), len(b.k))
	}
	for i := range a.k {
		if math.Float64bits(a.k[i]) != math.Float64bits(b.k[i]) {
			t.Fatalf("%s: segment %d total bits differ: %x vs %x", ctx, i, math.Float64bits(a.k[i]), math.Float64bits(b.k[i]))
		}
	}
	if ca, cb := a.Check(), b.Check(); !reflect.DeepEqual(ca, cb) {
		t.Fatalf("%s: Check differs:\nfull  %+v\nknown %+v", ctx, ca, cb)
	}
}

// TestLoadKnownMatchesLoad is the oracle for known-total loads: the edit
// scripts of TestEvalMatchesVerifyOnEditScripts run on two evaluators,
// one reloading with a full Load and one with LoadKnown from the previous
// Check.K, with random bound tightening between loads (totals never
// depend on the bounds, so the old K stays valid). After every load and
// every edit the two must agree field for field, K bits included.
func TestLoadKnownMatchesLoad(t *testing.T) {
	for _, bg := range []int{0, 2} {
		for _, n := range []int{1, 2, 5, 13, 28, 40} {
			for _, rate := range []float64{0.1, 0.5, 0.8} {
				seed := int64(n)*100 + int64(rate*10) + int64(bg)
				in := testInstance(n, rate, 0.55, seed)
				if bg > 0 {
					in.Model.BackgroundReturn = bg
				}
				runKnownLoadScript(t, in, n, rate, seed)
			}
		}
	}
}

func runKnownLoadScript(t *testing.T, in *Instance, n int, rate float64, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed * 17))
	full, known := NewEval(), NewEval()
	full.Bind(in)
	known.Bind(in)
	sol := randomSolution(n, rate, rng)
	k := in.Verify(sol).K
	rounds, steps := 6, 12
	if testing.Short() {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		for i := range in.Segs {
			if rng.Intn(3) == 0 {
				in.Segs[i].Kth *= 0.5 + 0.5*rng.Float64()
			}
		}
		if err := full.Load(sol); err != nil {
			t.Fatalf("n=%d rate=%g: load: %v", n, rate, err)
		}
		if err := known.LoadKnown(sol, k); err != nil {
			t.Fatalf("n=%d rate=%g: known load: %v", n, rate, err)
		}
		assertSameEvalState(t, full, known, "after load")
		assertEvalMatchesVerify(t, in, known, "after known load")

		editSeed := rng.Int63()
		ra, rb := rand.New(rand.NewSource(editSeed)), rand.New(rand.NewSource(editSeed))
		for step := 0; step < steps; step++ {
			randomEdit(t, full, ra)
			randomEdit(t, known, rb)
			assertSameEvalState(t, full, known, "after edit")
		}
		assertEvalMatchesVerify(t, in, known, "after edits")
		sol, k = known.Solution(), known.Check().K
	}
}

// TestLoadKnownRejectsWrongLength pins the guard on the caller's totals:
// a K slice that does not cover exactly the bound instance's segments is
// rejected by LoadKnown and by RepairWith, never silently adopted.
func TestLoadKnownRejectsWrongLength(t *testing.T) {
	in := testInstance(6, 0.5, 0.7, 3)
	sol, chk := Solve(in)
	e := NewEval()
	e.Bind(in)
	for _, k := range [][]float64{nil, chk.K[:5], append(append([]float64(nil), chk.K...), 0)} {
		if err := e.LoadKnown(sol, k); err == nil {
			t.Errorf("LoadKnown accepted %d totals for %d segments", len(k), len(in.Segs))
		}
		func() {
			defer func() {
				if recover() == nil && k != nil {
					t.Errorf("RepairWith accepted %d totals for %d segments", len(k), len(in.Segs))
				}
			}()
			RepairWith(NewEval(), in, sol.Clone(), k)
		}()
	}
	if err := e.LoadKnown(sol, chk.K); err != nil {
		t.Fatalf("LoadKnown rejected the solution's own totals: %v", err)
	}
}

// TestSharedRelationMatchesPrivate checks that a precomputed relation
// changes nothing: solves and repairs on an instance carrying one are
// bit-identical to the same calls building a private one, with and
// without known totals, on one pooled evaluator as the engine runs them.
func TestSharedRelationMatchesPrivate(t *testing.T) {
	ev := NewEval()
	for seed := int64(0); seed < 8; seed++ {
		n := 3 + int(seed)*7
		in := testInstance(n, 0.45, 0.6, seed)
		rel := NewRelation(in.Segs, in.Sensitive)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rel.get(i, j) != (i != j && in.sensitiveSegs(i, j)) {
					t.Fatalf("seed %d: relation pair (%d,%d) disagrees with the instance", seed, i, j)
				}
			}
		}
		shared := *in
		shared.Relation = rel

		ps, pc := SolveWith(ev, in)
		ss, sc := SolveWith(ev, &shared)
		if !reflect.DeepEqual(ps, ss) || !reflect.DeepEqual(pc, sc) {
			t.Fatalf("seed %d: solve with shared relation differs", seed)
		}

		for i := range in.Segs {
			in.Segs[i].Kth *= 0.7 // shared aliases the same segments
		}
		priv := ps.Clone()
		privChk := RepairWith(ev, in, priv, nil)
		for _, k := range [][]float64{nil, pc.K} {
			got := ps.Clone()
			gotChk := RepairWith(ev, &shared, got, k)
			if !reflect.DeepEqual(priv, got) || !reflect.DeepEqual(privChk, gotChk) {
				t.Fatalf("seed %d (known K %v): repair with shared relation differs", seed, k != nil)
			}
		}
	}
}

// TestValidateRejectsMismatchedRelation guards the one way a shared
// relation can be wrong that the instance can detect: its size.
func TestValidateRejectsMismatchedRelation(t *testing.T) {
	in := testInstance(5, 0.5, 0.7, 1)
	in.Relation = NewRelation(in.Segs[:4], in.Sensitive)
	if in.Validate() == nil {
		t.Fatal("relation over 4 segments accepted for a 5-segment instance")
	}
}

// TestSolveWithPooledEvaluatorMatchesFresh solves a stream of different
// instances through one pooled evaluator (the engine-worker pattern) and
// requires byte-identical solutions and reports versus one-shot solves —
// the guard against cross-instance contamination of the reused buffers
// and the private coupling memo.
func TestSolveWithPooledEvaluatorMatchesFresh(t *testing.T) {
	model := keff.NewModel(tech.Default())
	ev := NewEval()
	for seed := int64(0); seed < 8; seed++ {
		n := 4 + int(seed)*4
		in := testInstance(n, 0.4, 0.6, seed)
		in.Model = model // shared model: the memo persists across solves
		pooledSol, pooledChk := SolveWith(ev, in)
		freshSol, freshChk := Solve(in)
		if !reflect.DeepEqual(pooledSol, freshSol) {
			t.Fatalf("seed %d: pooled solution differs:\npooled %v\nfresh  %v", seed, pooledSol.Tracks, freshSol.Tracks)
		}
		if !reflect.DeepEqual(pooledChk, freshChk) {
			t.Fatalf("seed %d: pooled check differs", seed)
		}

		rs := pooledSol.Clone()
		fs := freshSol.Clone()
		tight := &Instance{Segs: append([]Seg(nil), in.Segs...), Sensitive: in.Sensitive, Model: model}
		for i := range tight.Segs {
			tight.Segs[i].Kth *= 0.7
		}
		rChk := RepairWith(ev, tight, rs, nil)
		fChk := Repair(tight, fs)
		if !reflect.DeepEqual(rs, fs) || !reflect.DeepEqual(rChk, fChk) {
			t.Fatalf("seed %d: pooled repair differs", seed)
		}
	}
}

// TestAnnealPooledMatchesFresh pins the annealing trajectory: the
// evaluator-based walk with a pooled evaluator must reproduce the one-shot
// result exactly (same seed, same moves, same acceptances).
func TestAnnealPooledMatchesFresh(t *testing.T) {
	ev := NewEval()
	for seed := int64(1); seed < 4; seed++ {
		in := testInstance(8, 0.5, 0.6, seed)
		opts := AnnealOptions{Seed: seed, Iterations: 1500}
		ps, pc := AnnealWith(ev, in, opts)
		fs, fc := Anneal(in, opts)
		if !reflect.DeepEqual(ps, fs) || !reflect.DeepEqual(pc, fc) {
			t.Fatalf("seed %d: pooled anneal differs:\npooled %v\nfresh  %v", seed, ps.Tracks, fs.Tracks)
		}
	}
}

// boxedInstance is two mutually sensitive segments with an unreachable
// bound: coupling across any number of shields never drops to zero, so
// repair cannot succeed and must recognize futility.
func boxedInstance() *Instance {
	return &Instance{
		Segs: []Seg{
			{Net: 0, Kth: 1e-9, Rate: 1},
			{Net: 1, Kth: 1e-9, Rate: 1},
		},
		Sensitive: func(a, b int) bool { return a != b },
		Model:     keff.NewModel(tech.Default()),
	}
}

// TestRepairStopsWhenBoxedIn is the regression test for the duplicated
// boxed-in check: with shields already on both sides of every violator, no
// insertion can reduce its coupling, and repairK must return immediately
// instead of burning the shield budget on duplicates.
func TestRepairStopsWhenBoxedIn(t *testing.T) {
	in := boxedInstance()
	s := &Solution{Tracks: []int{Shield, 0, Shield, 1, Shield}}
	chk := Repair(in, s)
	if got := s.NumTracks(); got != 5 {
		t.Fatalf("boxed-in repair changed the solution: %d tracks (want 5): %v", got, s.Tracks)
	}
	if chk.Feasible() || len(chk.Over) != 2 {
		t.Fatalf("boxed-in repair must report both segments over bound, got %+v", chk)
	}
}

// TestRepairSkipsUselessSideInsertion checks the single-shield half of the
// restructured logic: when the pull-preferred side already has a shield
// directly beside the violator, the insertion flips to the other side
// rather than stacking a redundant shield against the existing one.
func TestRepairSkipsUselessSideInsertion(t *testing.T) {
	in := boxedInstance()
	s := &Solution{Tracks: []int{0, Shield, 1}}
	Repair(in, s)
	for t2 := 0; t2+1 < len(s.Tracks); t2++ {
		if s.Tracks[t2] == Shield && s.Tracks[t2+1] == Shield {
			t.Fatalf("repair stacked adjacent shields: %v", s.Tracks)
		}
	}
}

// TestRepairRejectsStructurallyInvalid documents RepairWith's contract for
// broken inputs: no repair, oracle report returned.
func TestRepairRejectsStructurallyInvalid(t *testing.T) {
	in := testInstance(3, 0.5, 0.7, 1)
	s := &Solution{Tracks: []int{0, 1, 1}} // segment 2 missing, 1 duplicated
	chk := Repair(in, s)
	if chk.Structural == nil {
		t.Fatal("structurally invalid solution must be reported")
	}
	if len(s.Tracks) != 3 {
		t.Fatalf("structurally invalid solution must not be modified: %v", s.Tracks)
	}
}

// TestRandomSensitivityMatchesMapReference re-implements the historical
// map-backed draw and checks the bitset relation reproduces it pair for
// pair under the same rng stream — the draw order (row-major over i < j)
// is what keeps fitted coefficients unchanged.
func TestRandomSensitivityMatchesMapReference(t *testing.T) {
	for _, n := range []int{1, 2, 9, 24} {
		for _, rate := range []float64{0.1, 0.5, 0.8} {
			rates := make([]float64, n)
			for i := range rates {
				rates[i] = rate
			}
			seed := int64(n*100) + int64(rate*10)
			got := randomSensitivity(n, rates, rand.New(rand.NewSource(seed)))

			rng := rand.New(rand.NewSource(seed))
			ref := make(map[[2]int]bool)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if rng.Float64() < (rates[i]+rates[j])/2 {
						ref[[2]int{i, j}] = true
					}
				}
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a, b := i, j
					if a > b {
						a, b = b, a
					}
					if got(i, j) != ref[[2]int{a, b}] {
						t.Fatalf("n=%d rate=%g: pair (%d,%d): bitset %v, map %v", n, rate, i, j, got(i, j), ref[[2]int{a, b}])
					}
				}
			}
		}
	}
}

// TestEvalLoadReportsStructuralErrors mirrors Verify's structural cases.
func TestEvalLoadReportsStructuralErrors(t *testing.T) {
	in := testInstance(3, 0.5, 1, 1)
	e := NewEval()
	e.Bind(in)
	for _, c := range []struct {
		name   string
		tracks []int
	}{
		{"missing segment", []int{0, 1}},
		{"duplicate segment", []int{0, 1, 1, 2}},
		{"unknown segment", []int{0, 1, 2, 7}},
	} {
		if err := e.Load(&Solution{Tracks: c.tracks}); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	if err := e.Load(&Solution{Tracks: []int{2, Shield, 0, 1}}); err != nil {
		t.Errorf("valid solution rejected: %v", err)
	}
}
