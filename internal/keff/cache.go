package keff

import (
	"math"
	"sync"
	"sync/atomic"
)

// pairKey is the relative geometry of one pair-coupling evaluation. The
// coupling K_ij depends only on track-pitch distances — between the two
// wires and from each wire to its left/right return conductors — so two
// evaluations with equal pairKeys yield the same value under the same model
// configuration, regardless of which instance or absolute positions they
// came from.
type pairKey struct {
	D      int32 // tj − ti
	IL, IR int32 // wire i's distance to its left/right return
	JL, JR int32 // wire j's distance to its left/right return
}

// Dense-table sizing caps. The background-return model bounds every return
// distance by bg pitches and every cached separation by the pair cutoff, so
// for default configurations the whole geometry space fits a flat array.
const (
	maxDenseSep    = 64      // largest separation D the dense table covers
	maxDenseReturn = 16      // largest return distance the dense table covers
	maxDenseSlots  = 2 << 20 // hard cap on dense slots (16 MiB)
)

// pairShards is the shard count of the overflow map. Power of two so the
// shard pick is a mask; 64 keeps contention negligible at any realistic
// worker count.
const pairShards = 64

// PairCache is a concurrency-safe, read-mostly memo of pair-coupling
// evaluations. Region instances across a full chip share a small set of
// relative geometries (dense unshielded runs, wall-bounded stretches, the
// post-shield patterns Phase III converges to), so a single cache shared by
// every engine worker eliminates most PairCoupling arithmetic after warm-up.
//
// Two tiers back the cache. Geometries within the dense bounds — track
// separation up to the model's pair cutoff, return distances up to its
// background return — hit a dense lock-free table of atomic slots: a hit
// costs an index computation and one atomic load, far below the coupling
// formula itself. Every key the cutoff-bounded totals (Coupler.TrackTotal,
// Coupler.AllTotalsInto) produce under a bounded background return lands
// there. Other geometries fall back to sharded RWMutex-guarded maps: those
// of a huge or disabled background return, and single-pair lookups with
// no cutoff. The solver's sidePull is one — it sums couplings to every
// sensitive track in the instance, so its separations reach the instance
// width. On full-scale ibm01 that puts 358 957 of 1 095 958 resident
// geometries (33%) in the overflow maps. Both tiers store the exact
// computed float64, so cached results are bit-identical to direct ones; a
// racy double-compute stores the same bits.
//
// Cached values are a pure function of the relative geometry AND the model
// configuration (Technology, RefLength, BackgroundReturn): a PairCache must
// not be shared between models with different configurations.
type PairCache struct {
	dMax int // dense bound on D (separations 1..dMax)
	sMax int // dense bound on each return distance (1..sMax)

	// dense[slot] is 0 when empty, else Float64bits(k) with the sign bit
	// forced on as the presence flag (couplings are never negative).
	dense []atomic.Uint64

	shards [pairShards]pairShard // overflow for out-of-bounds geometries

	hits   atomic.Uint64
	misses atomic.Uint64
}

type pairShard struct {
	mu sync.RWMutex
	m  map[pairKey]float64
}

// NewPairCache returns an empty cache sized for the default model
// configuration (background return of 12 pitches).
func NewPairCache() *PairCache {
	return newPairCache(12, 4*12)
}

// NewPairCacheFor returns an empty cache sized to cover m's cutoff-bounded
// geometry: every evaluation within m's pair cutoff lands in the dense
// tier when the model's background return is bounded.
func NewPairCacheFor(m *Model) *PairCache {
	return newPairCache(m.backgroundReturn(), m.PairCutoff())
}

func newPairCache(bg, cutoff int) *PairCache {
	c := &PairCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[pairKey]float64)
	}
	s := min(bg, maxDenseReturn)
	d := min(cutoff, maxDenseSep)
	if s < 1 || d < 1 {
		return c
	}
	if s4 := s * s * s * s; d > maxDenseSlots/(2*s4) {
		d = maxDenseSlots / (2 * s4) // shrink the separation range before memory
	}
	if d < 1 {
		return c
	}
	c.sMax, c.dMax = s, d
	// Two halves: positive and negative separations. Orientations cache
	// separately (the formula is not bit-symmetric under operand swap), and
	// negative-D lookups come from single-pair callers like the solver's
	// sidePull. Its pairs within the separation bound land here; it has no
	// pair cutoff, so its farther pairs fall to the overflow tier.
	c.dense = make([]atomic.Uint64, 2*d*s*s*s*s)
	return c
}

// denseSlot maps a key to its dense index, or -1 when out of bounds.
func (c *PairCache) denseSlot(k pairKey) int {
	d, il, ir, jl, jr := int(k.D), int(k.IL), int(k.IR), int(k.JL), int(k.JR)
	neg := d < 0
	if neg {
		d = -d
	}
	if d < 1 || d > c.dMax ||
		il < 1 || il > c.sMax || ir < 1 || ir > c.sMax ||
		jl < 1 || jl > c.sMax || jr < 1 || jr > c.sMax {
		return -1
	}
	s := c.sMax
	slot := ((((jr-1)*s+(jl-1))*s+(ir-1))*s+(il-1))*c.dMax + (d - 1)
	if neg {
		slot += len(c.dense) / 2
	}
	return slot
}

const presenceBit = 1 << 63

// lookStats batches hit/miss counting so the hot path pays one atomic add
// per solver call instead of one per pair.
type lookStats struct {
	hits, misses uint64
}

func (c *PairCache) flush(ls *lookStats) {
	if ls.hits > 0 {
		c.hits.Add(ls.hits)
	}
	if ls.misses > 0 {
		c.misses.Add(ls.misses)
	}
}

func (c *PairCache) lookup(k pairKey, ls *lookStats) (float64, bool) {
	if slot := c.denseSlot(k); slot >= 0 {
		if b := c.dense[slot].Load(); b != 0 {
			ls.hits++
			return math.Float64frombits(b &^ presenceBit), true
		}
		ls.misses++
		return 0, false
	}
	s := c.shard(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		ls.hits++
	} else {
		ls.misses++
	}
	return v, ok
}

func (c *PairCache) store(k pairKey, v float64) {
	if slot := c.denseSlot(k); slot >= 0 {
		c.dense[slot].Store(math.Float64bits(v) | presenceBit)
		return
	}
	s := c.shard(k)
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

// shard maps an overflow key to its shard by mixing the distance fields.
func (c *PairCache) shard(k pairKey) *pairShard {
	h := uint64(uint32(k.D))*0x9e3779b1 ^ uint64(uint32(k.IL))*0x85ebca77 ^
		uint64(uint32(k.IR))*0xc2b2ae3d ^ uint64(uint32(k.JL))*0x27d4eb2f ^
		uint64(uint32(k.JR))*0x165667b1
	return &c.shards[h&(pairShards-1)]
}

// Stats returns the cumulative lookup counters.
func (c *PairCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (c *PairCache) HitRate() float64 {
	h, m := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Len returns the number of distinct geometries cached across both tiers.
func (c *PairCache) Len() int {
	return c.DenseLen() + c.OverflowLen()
}

// DenseLen returns the number of geometries cached in the lock-free dense
// tier. With a cache correctly sized for its model (NewPairCacheFor),
// every geometry within the pair cutoff lands here.
func (c *PairCache) DenseLen() int {
	n := 0
	for i := range c.dense {
		if c.dense[i].Load() != 0 {
			n++
		}
	}
	return n
}

// OverflowLen returns the number of geometries that fell to the locked
// overflow maps — geometries outside the dense tier's bounds. Under a
// bounded background return these are pairs beyond the cutoff, which only
// single-pair callers such as the solver's sidePull evaluate, or the
// geometries of a different model configuration than the cache was sized
// for.
func (c *PairCache) OverflowLen() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// DenseBounds returns the dense tier's coverage: the largest track
// separation and the largest per-side return distance it caches without
// falling to the overflow tier. Both are 0 when the dense tier is disabled.
func (c *PairCache) DenseBounds() (sep, ret int) {
	return c.dMax, c.sMax
}

// CacheInfo is a point-in-time introspection snapshot of a PairCache —
// tier occupancy, dense-tier coverage, and cumulative lookup counters —
// the unified metrics snapshot (internal/obs) reports per flow.
type CacheInfo struct {
	Dense, Overflow    int    // geometries resident per tier
	SepBound, RetBound int    // dense-tier coverage (DenseBounds)
	Hits, Misses       uint64 // cumulative lookups (Stats)
}

// Info gathers a CacheInfo snapshot. Safe on a nil cache (all zeros), so
// callers introspecting a lazily-allocated engine cache need no guard.
// Occupancy is a scan of both tiers — cheap relative to a solve batch, but
// not something to call per job.
func (c *PairCache) Info() CacheInfo {
	if c == nil {
		return CacheInfo{}
	}
	info := CacheInfo{Dense: c.DenseLen(), Overflow: c.OverflowLen()}
	info.SepBound, info.RetBound = c.DenseBounds()
	info.Hits, info.Misses = c.Stats()
	return info
}

// Clone returns an independent copy of the model: same configuration,
// snapshot of the memoized partial inductances. A Model is not safe for
// concurrent use (mutualAt grows the memo lazily); concurrent solvers give
// each worker its own clone and share a PairCache instead.
func (m *Model) Clone() *Model {
	return &Model{
		Tech:             m.Tech,
		RefLength:        m.RefLength,
		BackgroundReturn: m.BackgroundReturn,
		mu:               append([]float64(nil), m.mu...),
	}
}

// Warm precomputes the partial-inductance memo out to maxDist track pitches,
// so subsequent evaluations up to that separation are read-only.
func (m *Model) Warm(maxDist int) {
	if maxDist >= 0 {
		m.mutualAt(maxDist)
	}
}

// pairCouplingCached is pairCouplingAt behind the cache; a nil cache
// computes directly.
func (m *Model) pairCouplingCached(c *PairCache, ls *lookStats, ti, tj int, si, sj [2]int) float64 {
	if c == nil {
		return m.pairCouplingAt(ti, tj, si, sj)
	}
	key := pairKey{
		D:  int32(tj - ti),
		IL: int32(ti - si[0]), IR: int32(si[1] - ti),
		JL: int32(tj - sj[0]), JR: int32(sj[1] - tj),
	}
	if v, ok := c.lookup(key, ls); ok {
		return v
	}
	v := m.pairCouplingAt(ti, tj, si, sj)
	c.store(key, v)
	return v
}

// PairCouplingCached is PairCoupling backed by a shared cache; a nil cache
// is equivalent to PairCoupling. Orientations are cached separately — the
// formula's floating-point summation order differs under operand swap, and
// cached results must be bit-identical to direct ones.
func (m *Model) PairCouplingCached(c *PairCache, l Layout, ti, tj int) float64 {
	tr := l.Tracks
	// Reuse PairCoupling's validation panics for bad inputs.
	if ti == tj || ti < 0 || tj < 0 || ti >= len(tr) || tj >= len(tr) ||
		tr[ti].Kind != SignalTrack || tr[tj].Kind != SignalTrack {
		return m.PairCoupling(l, ti, tj)
	}
	il, ir := m.shieldNeighbors(tr, ti)
	jl, jr := m.shieldNeighbors(tr, tj)
	var ls lookStats
	v := m.pairCouplingCached(c, &ls, ti, tj, [2]int{il, ir}, [2]int{jl, jr})
	if c != nil {
		c.flush(&ls)
	}
	return v
}

// AllTotalsCached is AllTotals backed by a shared cache; a nil cache is
// equivalent to AllTotals. Both are thin wrappers over Coupler.AllTotalsInto.
func (m *Model) AllTotalsCached(c *PairCache, l Layout, sensitive func(a, b int) bool) []float64 {
	tr := l.Tracks
	out := make([]float64, len(tr))
	cp := Coupler{m: m, c: c}
	cp.AllTotalsInto(tr, m.shieldTable(tr), sensitive, out)
	cp.Flush()
	return out
}
