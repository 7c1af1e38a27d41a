package keff

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tech"
)

// denseLayout builds an n-track layout with shields at the given positions.
func denseLayout(n int, shieldAt ...int) Layout {
	l := Layout{Tracks: make([]Track, n)}
	for i := range l.Tracks {
		l.Tracks[i] = SignalOf(i)
	}
	for _, s := range shieldAt {
		l.Tracks[s] = ShieldOf()
	}
	return l
}

func TestCachedTotalsMatchUncached(t *testing.T) {
	m := NewModel(tech.Default())
	c := NewPairCache()
	for _, l := range []Layout{
		denseLayout(8),
		denseLayout(12, 3, 7),
		denseLayout(30, 0, 15, 29),
	} {
		want := m.AllTotals(l, allSensitive)
		// Twice: the second pass is served from the cache and must be
		// bit-identical (cached values are the computed float64s).
		for pass := 0; pass < 2; pass++ {
			got := m.AllTotalsCached(c, l, allSensitive)
			if len(got) != len(want) {
				t.Fatalf("length mismatch: %d vs %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("pass %d track %d: cached %g != uncached %g", pass, i, got[i], want[i])
				}
			}
		}
	}
	if h, _ := c.Stats(); h == 0 {
		t.Error("second pass produced no cache hits")
	}
	if c.Len() == 0 {
		t.Error("cache stored no geometries")
	}
}

func TestPairCouplingCachedMatchesPairCoupling(t *testing.T) {
	m := NewModel(tech.Default())
	c := NewPairCache()
	l := denseLayout(10, 4)
	for ti := 0; ti < 10; ti++ {
		for tj := 0; tj < 10; tj++ {
			if ti == tj || l.Tracks[ti].Kind != SignalTrack || l.Tracks[tj].Kind != SignalTrack {
				continue
			}
			want := m.PairCoupling(l, ti, tj)
			got := m.PairCouplingCached(c, l, ti, tj)
			if got != want {
				t.Errorf("(%d,%d): cached %g != direct %g", ti, tj, got, want)
			}
		}
	}
}

func TestCloneIsIndependentAndEquivalent(t *testing.T) {
	m := NewModel(tech.Default())
	l := denseLayout(16, 8)
	want := m.AllTotals(l, allSensitive)

	clone := m.Clone()
	got := clone.AllTotals(l, allSensitive)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("track %d: clone %g != original %g", i, got[i], want[i])
		}
	}
	// Growing the clone's memo must not touch the original.
	before := len(m.mu)
	clone.Warm(before + 50)
	if len(m.mu) != before {
		t.Errorf("warming the clone grew the original's memo: %d -> %d", before, len(m.mu))
	}
}

func TestPairCacheConcurrentUse(t *testing.T) {
	proto := NewModel(tech.Default())
	proto.Warm(64)
	c := NewPairCache()
	l := denseLayout(40, 10, 30)
	want := proto.AllTotals(l, allSensitive)

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := proto.Clone()
			for rep := 0; rep < 20; rep++ {
				got := m.AllTotalsCached(c, l, allSensitive)
				for i := range got {
					if math.Abs(got[i]-want[i]) != 0 {
						errs <- "concurrent cached totals diverged"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if c.HitRate() == 0 {
		t.Error("hit rate is zero after repeated identical evaluations")
	}
}

// TestCutoffTotalsStayInDenseTier pins the dense tier's coverage claim:
// under the default model every key the cutoff-bounded totals produce —
// TrackTotal and AllTotalsInto, at any layout width and shield density —
// lands in the dense tier. A single pair beyond the cutoff, as the
// solver's sidePull evaluates, is what falls to the overflow maps.
func TestCutoffTotalsStayInDenseTier(t *testing.T) {
	m := NewModel(tech.Default())
	cache := NewPairCacheFor(m)
	cp := NewCoupler(m, cache)
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 30, 100, 300} {
		for _, frac := range []float64{0, 0.05, 0.3} {
			l := randomLayout(n, frac, rng)
			shields := m.ShieldTableInto(l.Tracks, nil)
			out := make([]float64, n)
			cp.AllTotalsInto(l.Tracks, shields, allPairsSensitive, out)
			for ti := range l.Tracks {
				if l.Tracks[ti].Kind == SignalTrack {
					cp.TrackTotal(l.Tracks, shields, ti, allPairsSensitive)
				}
			}
		}
	}
	cp.Flush()
	if cache.DenseLen() == 0 {
		t.Fatal("no geometry reached the dense tier")
	}
	if n := cache.OverflowLen(); n != 0 {
		t.Fatalf("%d cutoff-bounded geometries fell to the overflow tier", n)
	}

	l := randomLayout(120, 0, rng)
	shields := m.ShieldTableInto(l.Tracks, nil)
	far := m.PairCutoff() + 10
	cp.Pair(far, 0, shields[far], shields[0])
	cp.Flush()
	if cache.OverflowLen() != 1 {
		t.Fatalf("a pair %d tracks apart (beyond the cutoff) should land in the overflow tier, overflow = %d",
			far, cache.OverflowLen())
	}
}
