package route

import (
	"container/heap"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
)

// FuzzBridgeCheck pins the drain's endpoint-local bridge check to the
// whole-bbox reference. Each input builds a random bbox (1×N and N×1
// included) and pin set (a single pin included), then deletes edges in
// random order through the reference while the pins stay connected — the
// drain's own invariant — comparing kernel and reference on every
// candidate and, at the end, on every alive edge.
func FuzzBridgeCheck(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(3))
	f.Add(int64(2), uint8(0), uint8(7), uint8(2)) // 1×N
	f.Add(int64(3), uint8(6), uint8(0), uint8(4)) // N×1
	f.Add(int64(4), uint8(5), uint8(5), uint8(0)) // single pin
	f.Add(int64(5), uint8(8), uint8(8), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, wb, hb, pb uint8) {
		w, h := 1+int(wb%9), 1+int(hb%9)
		rng := rand.New(rand.NewSource(seed))
		pins := make([]geom.Point, 1+int(pb%6))
		for i := range pins {
			pins[i] = geom.Point{X: rng.Intn(w), Y: rng.Intn(h)}
		}
		ns := bareNet(w, h, pins)
		var s bridgeScratch
		s.reserve(w * h)
		// Start near the top of the epoch range so some inputs wrap it.
		s.epoch = ^uint32(0) - uint32(rng.Intn(4))

		type edge struct {
			e    int
			horz bool
		}
		var edges []edge
		for e := range ns.aliveH {
			edges = append(edges, edge{e, true})
		}
		for e := range ns.aliveV {
			edges = append(edges, edge{e, false})
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		check := func(c edge) bool {
			want := disconnectsPinsRef(ns, c.e, c.horz)
			if got := s.disconnects(ns, c.e, c.horz); got != want {
				t.Fatalf("%dx%d pins %v: edge %d horz=%v: kernel %v, reference %v", w, h, pins, c.e, c.horz, got, want)
			}
			return want
		}
		for _, c := range edges {
			if check(c) {
				continue
			}
			if c.horz {
				ns.aliveH[c.e] = false
			} else {
				ns.aliveV[c.e] = false
			}
		}
		for _, c := range edges {
			if (c.horz && ns.aliveH[c.e]) || (!c.horz && ns.aliveV[c.e]) {
				check(c)
			}
		}
	})
}

// refHeap is container/heap over item.before: the oracle the typed heap's
// pop sequence is checked against.
type refHeap []item

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(item)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// TestEdgeHeapPopOrder checks that the typed heap pops exactly the order
// item.before defines: a full drain must match sort.Slice, and with lazy
// re-pushes interleaved it must match container/heap step for step. Keys
// come from a small set, so most comparisons fall through to the edge
// identity tie-break.
func TestEdgeHeapPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var items []item
		nets, edges := 1+rng.Intn(6), rng.Intn(12)
		for net := 0; net < nets; net++ {
			for e := 0; e < edges; e++ {
				for _, horz := range []bool{true, false} {
					if rng.Intn(3) > 0 {
						items = append(items, newItem(net, e, horz, float64(rng.Intn(4))/2))
					}
				}
			}
		}
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

		want := slices.Clone(items)
		sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
		h := edgeHeap(slices.Clone(items))
		h.init()
		var got []item
		for len(h) > 0 {
			got = append(got, h.pop())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: pop order differs from sort order\ngot  %v\nwant %v", trial, got, want)
		}

		h = edgeHeap(slices.Clone(items))
		h.init()
		ref := refHeap(slices.Clone(items))
		heap.Init(&ref)
		for step := 0; len(h) > 0; step++ {
			a, b := h.pop(), heap.Pop(&ref).(item)
			if a != b {
				t.Fatalf("trial %d step %d: typed heap popped %v, container/heap %v", trial, step, a, b)
			}
			// A lazy re-push: the same edge with a key that only falls.
			if rng.Intn(2) == 0 {
				a.key -= float64(rng.Intn(3)) / 2
				h.push(a)
				heap.Push(&ref, a)
			}
		}
		if len(ref) != 0 {
			t.Fatalf("trial %d: container/heap has %d items left", trial, len(ref))
		}
	}
}

// TestDrainAllocsBoundedByViews checks that a drain allocates only its
// bridge-check scratch, once per view, however many items it pops.
func TestDrainAllocsBoundedByViews(t *testing.T) {
	const runs = 3
	views := make([]*view, runs+1) // AllocsPerRun makes one warm-up call
	for i := range views {
		views[i] = drainFixture(t)
	}
	if n := len(views[0].pq); n < 10000 {
		t.Fatalf("fixture seeds only %d items", n)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		views[next].drain()
		next++
	})
	if allocs > 2 {
		t.Fatalf("drain made %.0f allocations per view, want at most 2 (scratch mark and queue)", allocs)
	}
}
