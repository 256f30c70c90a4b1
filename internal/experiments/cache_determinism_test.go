package experiments

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"umanycore/internal/sim"
	"umanycore/internal/sweep"
	"umanycore/internal/sweepcache"
)

// The cache determinism battery: for every cached driver shape, a cold run
// (filling the cache), a warm run (reading it), and a verify run (reading
// AND recomputing) must produce byte-for-byte identical figure data, at one
// worker and at many. This is the property that makes -cache safe to leave
// on: a warm figure is indistinguishable from a cold one.

// cacheOptions mirrors determinismOptions but trimmed further — the battery
// runs each driver up to six times.
func cacheOptions(parallel int) Options {
	o := DefaultOptions()
	o.Duration = 40 * sim.Millisecond
	o.Warmup = 10 * sim.Millisecond
	o.Drain = 200 * sim.Millisecond
	o.Loads = []float64{5000, 15000}
	o.Parallel = parallel
	return o
}

// withTestCache installs a fresh on-disk cache for one subtest and restores
// the disabled state afterwards. The cache warns through t.Logf, so
// corruption in the battery surfaces in -v output.
func withTestCache(t *testing.T) *sweepcache.Cache {
	t.Helper()
	c, err := sweepcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	c.SetLogf(func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		t.Logf(format, args...)
	})
	sweep.SetCache(c)
	sweep.ResetCacheCounters()
	t.Cleanup(func() {
		sweep.SetCache(nil)
		sweep.ResetCacheCounters()
	})
	return c
}

// jsonBytes canonicalizes one figure's rows through encoding/json — the same
// path umbench -json uses — so "byte-for-byte" means what the CLI ships.
func jsonBytes(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runBattery drives one figure through the cold/warm/verify × 1/N-worker
// matrix and byte-compares every run against the cold baseline.
func runBattery(t *testing.T, name string, fig func(o Options) any) {
	t.Helper()
	c := withTestCache(t)

	cold := jsonBytes(t, fig(cacheOptions(1)))
	s := c.Snapshot()
	if s.Stores == 0 {
		t.Fatalf("%s: cold run stored no cells — the driver is not wired into the cache", name)
	}
	if s.Hits != 0 {
		t.Fatalf("%s: cold run hit %d cells in an empty cache", name, s.Hits)
	}

	for _, workers := range []int{1, 4} {
		warm := jsonBytes(t, fig(cacheOptions(workers)))
		if string(warm) != string(cold) {
			t.Fatalf("%s: warm run (workers=%d) differs from cold:\n cold: %s\n warm: %s", name, workers, cold, warm)
		}
	}
	ws := c.Snapshot()
	if ws.Hits == 0 {
		t.Fatalf("%s: warm runs produced no cache hits", name)
	}

	c.SetVerify(true)
	for _, workers := range []int{1, 4} {
		ver := jsonBytes(t, fig(cacheOptions(workers)))
		if string(ver) != string(cold) {
			t.Fatalf("%s: verify run (workers=%d) differs from cold", name, workers)
		}
	}
	vs := c.Snapshot()
	if vs.Mismatches != 0 {
		t.Fatalf("%s: verify found %d byte mismatches: %v", name, vs.Mismatches, c.Mismatches())
	}
	if vs.Invalid != 0 {
		t.Fatalf("%s: %d entries invalidated during the battery", name, vs.Invalid)
	}
}

// TestCacheBatteryDrivers runs the cold==warm==verify battery over one
// driver of each cached shape: the full-result Map2 grid (EndToEnd), the
// scalar-projection grid (Fig6), the job-slice path (Fig20), the non-sim
// cell codec (Fig9), the coupled-fleet codec (FleetLB, plus the sharded
// FleetScale cells that reuse it) and the per-architecture search vectors
// (Fig18, two request types at 2 ms windows).
func TestCacheBatteryDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	fig18 := fig18Options(t, 2*sim.Millisecond, 1, "HomeT", "CPost")
	figs := []struct {
		name string
		fn   func(o Options) any
	}{
		{"EndToEnd", func(o Options) any { return EndToEnd(o) }},
		{"Fig6", func(o Options) any { return Fig6(o) }},
		{"Fig20", func(o Options) any { return Fig20(o) }},
		{"Fig9", func(o Options) any { return Fig9(o) }},
		{"FleetLB", func(o Options) any { return FleetLB(o) }},
		{"FleetScale", func(o Options) any { o.FleetSizes = []int{2, 4}; return FleetScale(o) }},
		{"FleetControl", func(o Options) any { return FleetControl(o) }},
		{"FleetGraph", func(o Options) any { return FleetGraph(o) }},
		{"Fig18", func(o Options) any {
			fig18.Parallel = o.Parallel
			return Fig18(fig18)
		}},
	}
	for _, f := range figs {
		f := f
		t.Run(f.name, func(t *testing.T) { runBattery(t, f.name, f.fn) })
	}
}

// TestCacheMatchesUncached: with a cache installed, results must equal the
// cache-free computation exactly — installing -cache can never change a
// figure.
func TestCacheMatchesUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	sweep.SetCache(nil)
	plain := Fig6(cacheOptions(1))
	withTestCache(t)
	cached := Fig6(cacheOptions(1)) // cold: every cell computes + stores
	warm := Fig6(cacheOptions(1))   // warm: every cell decodes
	if !reflect.DeepEqual(plain, cached) {
		t.Fatal("cold cached run differs from uncached run")
	}
	if !reflect.DeepEqual(plain, warm) {
		t.Fatal("warm cached run differs from uncached run")
	}
}

// TestCacheCorruptionRecomputesToSameBytes: flipping bytes in stored entries
// must degrade to recomputation that converges on the original figure.
func TestCacheCorruptionRecomputesToSameBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	c := withTestCache(t)
	o := cacheOptions(1)
	cold := jsonBytes(t, Fig9(o))
	// Replace every stored entry with a plausible lie.
	corrupted := 0
	for _, s := range []fig9Side{
		{"data", o.jobSeed("fig9/data"), fig9TraceLen},
		{"instr", o.jobSeed("fig9/instr"), fig9TraceLen},
	} {
		pre := fig9Pre(0, s)
		if pre == nil {
			t.Fatal("probe preimage failed")
		}
		if _, ok := c.Lookup(pre); !ok {
			t.Fatalf("side %s not stored by the cold run", s.Name)
		}
		c.Store(pre, []byte(`{"rows":[{"class":"Data","structure":"L1TLB","hit_rate":0.0}]}`))
		corrupted++
	}
	// Verify mode must catch the lie and converge the cache back to truth.
	c.SetVerify(true)
	ver := jsonBytes(t, Fig9(cacheOptions(1)))
	if string(ver) != string(cold) {
		t.Fatal("verify run did not return the recomputed truth")
	}
	if c.Snapshot().Mismatches != int64(corrupted) {
		t.Fatalf("mismatches = %d, want %d", c.Snapshot().Mismatches, corrupted)
	}
	c.SetVerify(false)
	warm := jsonBytes(t, Fig9(cacheOptions(1)))
	if string(warm) != string(cold) {
		t.Fatal("cache did not converge after verify repair")
	}
}
