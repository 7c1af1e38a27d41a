package route

import (
	"cmp"
	"context"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/orderutil"
)

// weightSlack is the tolerance for treating a recomputed edge weight as
// current; weights only decrease (see package comment), so a pop whose
// recomputed weight sits within the slack of its key is the true maximum.
const weightSlack = 1e-6

// view is one deletion context's window onto the utilization state: the
// router's frozen base arrays plus a private set of delta arrays covering
// the window rectangle, and the heap of edges it is responsible for.
//
// Sequential Run uses a single view spanning the whole grid. RunSharded
// gives every tile group its own view, so concurrent drains never write
// shared memory: a group reads the base (immutable while drains run) plus
// only its own deltas, which is exactly the frozen-foreign-state semantics
// the determinism argument in shard.go builds on.
type view struct {
	r     *Router
	win   geom.Rect
	wcols int

	dNnsH, dSumSH, dSumS2H []float64
	dNnsV, dSumSV, dSumS2V []float64

	pq edgeHeap

	// scratch is the bridge check's search state, reused across pops. A
	// view drains on one goroutine, so it needs no locking.
	scratch bridgeScratch
}

func newView(r *Router, win geom.Rect) *view {
	n := win.Cells()
	return &view{
		r: r, win: win, wcols: win.Width(),
		dNnsH: make([]float64, n), dSumSH: make([]float64, n), dSumS2H: make([]float64, n),
		dNnsV: make([]float64, n), dSumSV: make([]float64, n), dSumS2V: make([]float64, n),
	}
}

// widx maps a global region coordinate into the view's window arrays.
func (v *view) widx(x, y int) int { return (y-v.win.MinY)*v.wcols + (x - v.win.MinX) }

// bumpH adjusts the view's private horizontal utilization deltas.
func (v *view) bumpH(x, y int, rate, delta float64) {
	w := v.widx(x, y)
	v.dNnsH[w] += delta
	v.dSumSH[w] += delta * rate
	v.dSumS2H[w] += delta * rate * rate
}

func (v *view) bumpV(x, y int, rate, delta float64) {
	w := v.widx(x, y)
	v.dNnsV[w] += delta
	v.dSumSV[w] += delta * rate
	v.dSumS2V[w] += delta * rate * rate
}

// merge folds the view's deltas into the router's base arrays. Sequential
// only: callers serialize merges in a fixed order so the float additions
// are reproducible.
func (v *view) merge() {
	r := v.r
	for y := v.win.MinY; y <= v.win.MaxY; y++ {
		for x := v.win.MinX; x <= v.win.MaxX; x++ {
			i, w := y*r.g.Cols+x, v.widx(x, y)
			r.nnsH[i] += v.dNnsH[w]
			r.sumSH[i] += v.dSumSH[w]
			r.sumS2H[i] += v.dSumS2H[w]
			r.nnsV[i] += v.dNnsV[w]
			r.sumSV[i] += v.dSumSV[w]
			r.sumS2V[i] += v.dSumS2V[w]
		}
	}
}

// Run executes the iterative deletion to the fixpoint and extracts each
// net's Steiner tree. It is the sequential reference algorithm: one heap,
// one view spanning the grid. A Router is single-use — call exactly one of
// Run or RunSharded, once.
func (r *Router) Run() *Result {
	v := newView(r, r.g.Bounds())
	v.pq = r.pq
	r.pq = nil
	v.pq.init()
	v.drain()
	v.merge()
	res := r.extract()
	res.Stats = RunStats{Shards: 1, LargestShard: len(r.nets), SeedChunks: r.seedChunks}
	return res
}

// drain pops the view's heap to its fixpoint, deleting the highest-weight
// deletable edge of the view's nets each step. Past sizing the bridge
// check's scratch up front, it allocates nothing: lazy re-pushes reuse the
// slot the pop freed.
func (v *view) drain() {
	r := v.r
	cells := 0
	for _, it := range v.pq {
		ns := &r.nets[it.net()]
		cells = max(cells, ns.w*ns.h)
	}
	v.scratch.reserve(cells)
	for len(v.pq) > 0 {
		it := v.pq.pop()
		ni, e, horz := it.net(), it.edge(), it.horz()
		ns := &r.nets[ni]
		var alive, frozen []bool
		if horz {
			alive, frozen = ns.aliveH, ns.frozenH
		} else {
			alive, frozen = ns.aliveV, ns.frozenV
		}
		if !alive[e] || frozen[e] {
			continue
		}
		x, y := r.edgeOrigin(ns, e, horz)
		w := r.edgeWeight(ni, x, y, horz, v)
		if w < it.key-weightSlack {
			it.key = w
			v.pq.push(it)
			continue
		}
		if v.scratch.disconnects(ns, e, horz) {
			frozen[e] = true
			continue
		}
		// Delete the edge and release its expected utilization.
		alive[e] = false
		ns.nAlive--
		if horz {
			v.bumpH(x, y, ns.rate, -0.5)
			v.bumpH(x+1, y, ns.rate, -0.5)
		} else {
			v.bumpV(x, y, ns.rate, -0.5)
			v.bumpV(x, y+1, ns.rate, -0.5)
		}
	}
}

// edgeOrigin recovers the global anchor region (x, y) of a local edge index.
func (r *Router) edgeOrigin(ns *netState, e int, horz bool) (int, int) {
	if horz {
		return ns.bbox.MinX + e%(ns.w-1), ns.bbox.MinY + e/(ns.w-1)
	}
	return ns.bbox.MinX + e%ns.w, ns.bbox.MinY + e/ns.w
}

// bridgeScratch is the bridge check's reusable search state: an
// epoch-stamped visited array (mark[v] == epoch means visited in the
// current search, so nothing is cleared per call) and a BFS queue.
type bridgeScratch struct {
	mark  []uint32
	epoch uint32
	queue []int32
}

// reserve sizes the scratch for nets of up to cells local vertices.
func (s *bridgeScratch) reserve(cells int) {
	if len(s.mark) < cells {
		s.mark = make([]uint32, cells)
		s.epoch = 0
	}
	if cap(s.queue) < cells {
		s.queue = make([]int32, 0, cells)
	}
}

// disconnects reports whether removing alive edge e would disconnect the
// net's pin regions in its surviving subgraph. The scratch must be
// reserved for at least the net's w*h vertices.
//
// It relies on one invariant: on entry all pins are connected through
// alive edges. Deletions never disconnect them, and a rip-up resets the
// net to its full bbox graph. So removing edge (a,b) can disconnect pins
// only if it is a bridge, and then exactly when a's side holds some but
// not all of the pins. The search runs from a with the edge masked and
// stops as soon as it reaches b.
func (s *bridgeScratch) disconnects(ns *netState, e int, horz bool) bool {
	if ns.npins <= 1 {
		return false
	}
	w := ns.w
	var a, b int
	if horz {
		a = e/(w-1)*w + e%(w-1)
		b = a + 1
	} else {
		a, b = e, e+w
	}
	s.epoch++
	if s.epoch == 0 {
		clear(s.mark)
		s.epoch = 1
	}
	epoch, mark := s.epoch, s.mark
	aliveH, aliveV := ns.aliveH, ns.aliveV
	// The only edge between a and b is e; masking it means never stepping
	// from a straight to b, and any other arrival at b ends the search.
	mark[a] = epoch
	q := append(s.queue[:0], int32(a))
	pins := 0
	for head := 0; head < len(q); head++ {
		v := int(q[head])
		if ns.pinMask[v] {
			pins++
		}
		vx, vy := v%w, v/w
		var nbr [4]int
		n := 0
		if vx > 0 && aliveH[vy*(w-1)+vx-1] {
			nbr[n] = v - 1
			n++
		}
		if vx < w-1 && aliveH[vy*(w-1)+vx] {
			nbr[n] = v + 1
			n++
		}
		if vy > 0 && aliveV[v-w] {
			nbr[n] = v - w
			n++
		}
		if vy < ns.h-1 && aliveV[v] {
			nbr[n] = v + w
			n++
		}
		for _, nv := range nbr[:n] {
			if nv == b {
				if v == a {
					continue
				}
				return false
			}
			if mark[nv] != epoch {
				mark[nv] = epoch
				q = append(q, int32(nv))
			}
		}
	}
	return pins > 0 && pins < ns.npins
}

// extract materializes the surviving edges into trees and exact usage.
func (r *Router) extract() *Result {
	res := &Result{
		Trees: make([]Tree, len(r.nets)),
		Usage: grid.NewUsage(r.g),
	}
	r.extractRange(res.Trees, res.Usage, 0, len(r.nets))
	return res
}

// extractChunk is the net count each parallel extraction task handles.
const extractChunk = 256

// extractParallel materializes trees and usage with the per-net work
// fanned out over the pool via mapChunks. Chunk boundaries are a pure
// function of the net count, tree slots are disjoint, and per-chunk
// usage tallies hold integer counts, so the summed usage is exact and the
// result matches sequential extract byte for byte at any worker count.
func (r *Router) extractParallel(ctx context.Context, pool Pool) (*Result, error) {
	n := len(r.nets)
	if pool == nil || n <= extractChunk {
		return r.extract(), nil
	}
	res := &Result{
		Trees: make([]Tree, n),
		Usage: grid.NewUsage(r.g),
	}
	usages := make([]*grid.Usage, (n+extractChunk-1)/extractChunk)
	err := mapChunks(ctx, pool, "extract", n, extractChunk, func(c, lo, hi int) error {
		usages[c] = grid.NewUsage(r.g)
		r.extractRange(res.Trees, usages[c], lo, hi)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, u := range usages {
		for i := range u.H {
			res.Usage.H[i] += u.H[i]
			res.Usage.V[i] += u.V[i]
		}
	}
	return res, nil
}

// extractRange builds trees[lo:hi] and accumulates their exact usage.
func (r *Router) extractRange(trees []Tree, usage *grid.Usage, lo, hi int) {
	for ni := lo; ni < hi; ni++ {
		ns := &r.nets[ni]
		tree := Tree{Net: ns.id}
		hTouched := make(map[geom.Point]bool)
		vTouched := make(map[geom.Point]bool)
		for e, alive := range ns.aliveH {
			if !alive {
				continue
			}
			x, y := r.edgeOrigin(ns, e, true)
			tree.Edges = append(tree.Edges, Edge{
				From: geom.Point{X: x, Y: y}, To: geom.Point{X: x + 1, Y: y},
			})
			hTouched[geom.Point{X: x, Y: y}] = true
			hTouched[geom.Point{X: x + 1, Y: y}] = true
		}
		for e, alive := range ns.aliveV {
			if !alive {
				continue
			}
			x, y := r.edgeOrigin(ns, e, false)
			tree.Edges = append(tree.Edges, Edge{
				From: geom.Point{X: x, Y: y}, To: geom.Point{X: x, Y: y + 1},
			})
			vTouched[geom.Point{X: x, Y: y}] = true
			vTouched[geom.Point{X: x, Y: y + 1}] = true
		}
		regionSet := make(map[geom.Point]bool, len(hTouched)+len(vTouched))
		for p := range hTouched { //detcheck:allow maporder each key hits a distinct usage slot exactly once with +1.0, so the float adds commute bit-exactly
			regionSet[p] = true
			usage.H[r.g.Index(p)]++
		}
		for p := range vTouched { //detcheck:allow maporder each key hits a distinct usage slot exactly once with +1.0, so the float adds commute bit-exactly
			regionSet[p] = true
			usage.V[r.g.Index(p)]++
		}
		// Pin regions are part of the route even when edgeless.
		for v, isPin := range ns.pinMask {
			if isPin {
				p := geom.Point{X: ns.bbox.MinX + v%ns.w, Y: ns.bbox.MinY + v/ns.w}
				regionSet[p] = true
			}
		}
		// Emit regions in scan order: downstream consumers iterate Regions,
		// and map order would leak nondeterminism into reports.
		tree.Regions = orderutil.SortedKeysFunc(regionSet, func(a, b geom.Point) int {
			if a.Y != b.Y {
				return cmp.Compare(a.Y, b.Y)
			}
			return cmp.Compare(a.X, b.X)
		})
		trees[ni] = tree
	}
}

// TouchesDirection reports per-direction track occupancy of a tree: the
// regions where the net holds a horizontal (resp. vertical) track.
func (t *Tree) TouchesDirection() (h, v map[geom.Point]bool) {
	h = make(map[geom.Point]bool)
	v = make(map[geom.Point]bool)
	for _, e := range t.Edges {
		if e.Horizontal() {
			h[e.From] = true
			h[e.To] = true
		} else {
			v[e.From] = true
			v[e.To] = true
		}
	}
	return h, v
}

// Connected verifies the tree spans all its pin regions (used by tests).
func (t *Tree) Connected(pins []geom.Point) bool {
	if len(pins) <= 1 {
		return true
	}
	adj := make(map[geom.Point][]geom.Point)
	for _, e := range t.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	visited := map[geom.Point]bool{pins[0]: true}
	queue := []geom.Point{pins[0]}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, q := range adj[p] {
			if !visited[q] {
				visited[q] = true
				queue = append(queue, q)
			}
		}
	}
	for _, p := range pins {
		if !visited[p] {
			return false
		}
	}
	return true
}

// IsTree verifies the edge set is acyclic and connected over its touched
// regions (used by tests).
func (t *Tree) IsTree() bool {
	if len(t.Edges) == 0 {
		return true
	}
	verts := make(map[geom.Point]bool)
	for _, e := range t.Edges {
		verts[e.From] = true
		verts[e.To] = true
	}
	// A connected graph with V vertices and V-1 edges is a tree.
	if len(t.Edges) != len(verts)-1 {
		return false
	}
	adj := make(map[geom.Point][]geom.Point)
	for _, e := range t.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	var start geom.Point
	for p := range verts { //detcheck:allow maporder picks an arbitrary BFS start vertex; the connectivity verdict is the same from any start
		start = p
		break
	}
	visited := map[geom.Point]bool{start: true}
	queue := []geom.Point{start}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, q := range adj[p] {
			if !visited[q] {
				visited[q] = true
				queue = append(queue, q)
			}
		}
	}
	return len(visited) == len(verts)
}
