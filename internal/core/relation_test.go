package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/sino"
)

// TestRefineLeavesRelationsUntouched checks that the precomputed
// per-instance sensitivity relations are what their segment lists imply
// and that pooled refinement only ever reads them: after refine every
// instance still holds the same relation, bit-identical to one built
// afresh from its segments. The -race CI step covers the concurrent reads
// themselves.
func TestRefineLeavesRelationsUntouched(t *testing.T) {
	r, st := ibmRefineFixture(t, 16, 0.5, 1, Params{Workers: 4})
	rels := make([]*sino.Relation, len(st.orderd))
	for i, in := range st.orderd {
		if in.rel == nil {
			t.Fatalf("instance %d has no precomputed relation after Phase II", i)
		}
		if !reflect.DeepEqual(in.rel, sino.NewRelation(in.segs, r.sens.Sensitive)) {
			t.Fatalf("instance %d: precomputed relation differs from its segment list's", i)
		}
		rels[i] = in.rel
	}
	stats, err := st.refine(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.resolves == 0 {
		t.Fatal("fixture ran no re-solves; the check would prove nothing")
	}
	for i, in := range st.orderd {
		if in.rel != rels[i] {
			t.Fatalf("instance %d: refine replaced the relation", i)
		}
		if !reflect.DeepEqual(in.rel, sino.NewRelation(in.segs, r.sens.Sensitive)) {
			t.Fatalf("instance %d: refine wrote to the shared relation", i)
		}
	}
}

// TestNetOrderBuildsNoRelations pins that the ID+NO baseline, whose solver
// never binds an evaluator, pays nothing for the precomputed relations.
func TestNetOrderBuildsNoRelations(t *testing.T) {
	r, err := NewRunner(smallDesign(t, 60, 0.5, 1), Params{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.routeAll(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	st := r.buildState(res, budgetManhattan)
	if err := st.solveAll(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	for i, in := range st.orderd {
		if in.rel != nil {
			t.Fatalf("instance %d: net-order flow built a sensitivity relation", i)
		}
	}
}

// TestRepairWavesDoNoFullLoads pins EvalStats.Loads to its meaning — full
// O(n·cutoff) rebuilds — on a fixture with real Phase III work: Phase II
// does one per instance, each pass-2 speculation one more, and the repair
// waves none, because repair jobs start from the instance's known totals.
func TestRepairWavesDoNoFullLoads(t *testing.T) {
	r, st := ibmRefineFixture(t, 16, 0.5, 1, Params{Workers: 2})
	afterII := r.eng.EvalStats()
	if got, want := afterII.Loads, uint64(len(st.orderd)); got != want {
		t.Fatalf("Phase II full loads = %d, want one per instance (%d)", got, want)
	}
	stats, err := st.refine(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	repairs := stats.resolves - stats.Relaxed
	if repairs == 0 {
		t.Fatal("fixture ran no repair jobs; the pin would prove nothing")
	}
	d := r.eng.EvalStats().Sub(afterII)
	if d.Loads != uint64(stats.Relaxed) {
		t.Errorf("refine did %d full loads, want %d (pass-2 speculations only; %d repairs)",
			d.Loads, stats.Relaxed, repairs)
	}
	if d.Binds != uint64(stats.resolves) {
		t.Errorf("refine bound %d instances, want one per re-solve (%d)", d.Binds, stats.resolves)
	}
}
