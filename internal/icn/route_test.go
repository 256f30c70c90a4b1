package icn

import (
	"fmt"
	"math/rand"
	"testing"
)

// linkIndex maps each directed (from, to) router pair of a topology to its
// link, so the reference routes below name links by their endpoints instead
// of by the topology's internal tables.
func linkIndex(t testing.TB, topo Topology) map[[2]int]*Link {
	idx := make(map[[2]int]*Link)
	for _, l := range topo.Links() {
		k := [2]int{l.From, l.To}
		if idx[k] != nil {
			t.Fatalf("%s: duplicate link %d->%d", topo.Name(), l.From, l.To)
		}
		idx[k] = l
	}
	return idx
}

// hopsVia turns a router sequence into its links.
func hopsVia(t testing.TB, idx map[[2]int]*Link, nodes ...int) []*Link {
	var out []*Link
	for i := 1; i < len(nodes); i++ {
		l := idx[[2]int{nodes[i-1], nodes[i]}]
		if l == nil {
			t.Fatalf("no link %d->%d", nodes[i-1], nodes[i])
		}
		out = append(out, l)
	}
	return out
}

// refMeshPath is XY dimension-order routing over router IDs y*w+x.
func refMeshPath(t testing.TB, idx map[[2]int]*Link, w, src, dst int) []*Link {
	x, y := src%w, src/w
	nodes := []int{src}
	for x != dst%w {
		if dst%w > x {
			x++
		} else {
			x--
		}
		nodes = append(nodes, y*w+x)
	}
	for y != dst/w {
		if dst/w > y {
			y++
		} else {
			y--
		}
		nodes = append(nodes, y*w+x)
	}
	return hopsVia(t, idx, nodes...)
}

// refFatTreePath ascends from leaf src to the lowest common ancestor and
// descends to leaf dst, over heap-ordered node numbers.
func refFatTreePath(t testing.TB, idx map[[2]int]*Link, leaves, src, dst int) []*Link {
	a, b := src+leaves, dst+leaves
	up := []int{a}
	var down []int
	for a != b {
		a, b = a/2, b/2
		up = append(up, a)
		down = append(down, b)
	}
	nodes := up
	for i := len(down) - 2; i >= 0; i-- {
		nodes = append(nodes, down[i])
	}
	if src != dst {
		nodes = append(nodes, dst+leaves)
	}
	return hopsVia(t, idx, nodes...)
}

// refRootPath is the ascent from a leaf to the root (node 1).
func refRootPath(t testing.TB, idx map[[2]int]*Link, leaves, leaf int) []*Link {
	nodes := []int{leaf + leaves}
	for n := leaf + leaves; n > 1; n /= 2 {
		nodes = append(nodes, n/2)
	}
	return hopsVia(t, idx, nodes...)
}

// refLeafSpinePath routes over router IDs leaf, nLeaves+l2, nLeaves+nL2+l3,
// drawing the spine choices from rng in the same order as the topology:
// the L2 spine first, then (inter-pod only) the L3 spine.
func refLeafSpinePath(t testing.TB, idx map[[2]int]*Link, cfg LeafSpineConfig, src, dst int, rng *rand.Rand) []*Link {
	if src == dst {
		return nil
	}
	nLeaves := cfg.Pods * cfg.LeavesPerPod
	nL2 := cfg.Pods * cfg.L2PerPod
	srcPod, dstPod := src/cfg.LeavesPerPod, dst/cfg.LeavesPerPod
	l2Node := func(pod, s int) int { return nLeaves + pod*cfg.L2PerPod + s }
	l3Node := func(t int) int { return nLeaves + nL2 + t }
	// pick returns the first index whose first-hop link frees earliest
	// (LeastLoadedSpine) or a uniform draw (RandomSpine).
	pick := func(n int, first func(i int) *Link) int {
		if cfg.Select == RandomSpine {
			return rng.Intn(n)
		}
		best := 0
		for i := 1; i < n; i++ {
			if first(i).BusyUntil() < first(best).BusyUntil() {
				best = i
			}
		}
		return best
	}
	s := pick(cfg.L2PerPod, func(i int) *Link { return idx[[2]int{src, l2Node(srcPod, i)}] })
	if srcPod == dstPod {
		return hopsVia(t, idx, src, l2Node(srcPod, s), dst)
	}
	l3 := pick(cfg.L3Count, func(i int) *Link { return idx[[2]int{l2Node(srcPod, s), l3Node(i)}] })
	return hopsVia(t, idx, src, l2Node(srcPod, s), l3Node(l3), l2Node(dstPod, s), dst)
}

// routeCase pairs a topology with its reference router.
type routeCase struct {
	name string
	topo Topology
	ref  func(t testing.TB, src, dst int, rng *rand.Rand) []*Link
}

func routeCases(t testing.TB) []routeCase {
	var cases []routeCase
	for _, sel := range []struct {
		s    SpineSelect
		name string
	}{{RandomSpine, "random"}, {LeastLoadedSpine, "least-loaded"}} {
		cfg := PaperLeafSpine()
		cfg.Select = sel.s
		ls := NewLeafSpine(cfg, testParams())
		idx := linkIndex(t, ls)
		cases = append(cases, routeCase{"leaf-spine-" + sel.name, ls,
			func(t testing.TB, src, dst int, rng *rand.Rand) []*Link {
				return refLeafSpinePath(t, idx, cfg, src, dst, rng)
			}})
	}
	ft := NewFatTree(32, testParams())
	ftIdx := linkIndex(t, ft)
	cases = append(cases, routeCase{"fat-tree-32", ft, func(t testing.TB, src, dst int, _ *rand.Rand) []*Link {
		return refFatTreePath(t, ftIdx, 32, src, dst)
	}})
	// The ServerClass-40 mesh: 8 columns by 5 rows.
	mesh := NewMesh(8, 5, testParams())
	meshIdx := linkIndex(t, mesh)
	cases = append(cases, routeCase{"mesh-8x5", mesh, func(t testing.TB, src, dst int, _ *rand.Rand) []*Link {
		return refMeshPath(t, meshIdx, 8, src, dst)
	}})
	xbar := NewCrossbar(6, testParams())
	xbarIdx := linkIndex(t, xbar)
	cases = append(cases, routeCase{"crossbar-6", xbar, func(t testing.TB, src, dst int, _ *rand.Rand) []*Link {
		if src == dst {
			return nil
		}
		return hopsVia(t, xbarIdx, src, dst)
	}})
	return cases
}

// checkAppended asserts got is prefix followed by want.
func checkAppended(t *testing.T, what string, got, prefix, want []*Link) {
	t.Helper()
	if len(got) != len(prefix)+len(want) {
		t.Fatalf("%s: %d links, want %d prefix + %d route", what, len(got), len(prefix), len(want))
	}
	for i, l := range prefix {
		if got[i] != l {
			t.Fatalf("%s: prefix link %d overwritten", what, i)
		}
	}
	for i, l := range want {
		if got[len(prefix)+i] != l {
			t.Fatalf("%s: hop %d is %d->%d, want %d->%d", what, i,
				got[len(prefix)+i].From, got[len(prefix)+i].To, l.From, l.To)
		}
	}
}

// TestAppendPathMatchesReference pins every route of the paper topologies:
// for all (src, dst), AppendPath onto a non-empty prefix keeps the prefix,
// appends exactly the reference route, and consumes exactly the reference's
// rng draws — so ECMP spine choices, and every figure built on them, stay
// deterministic. Least-loaded selection is checked against links with
// uneven backlogs.
func TestAppendPathMatchesReference(t *testing.T) {
	for _, rc := range routeCases(t) {
		t.Run(rc.name, func(t *testing.T) {
			load := rand.New(rand.NewSource(11))
			for _, l := range rc.topo.Links() {
				l.Traverse(0, load.Intn(4096), true)
			}
			all := rc.topo.Links()
			prefix := []*Link{all[len(all)-1], all[0]}
			buf := make([]*Link, 0, 16)
			gotRng := rand.New(rand.NewSource(7))
			refRng := rand.New(rand.NewSource(7))
			n := rc.topo.NumEndpoints()
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					buf = append(buf[:0], prefix...)
					got := rc.topo.AppendPath(buf, src, dst, gotRng)
					want := rc.ref(t, src, dst, refRng)
					checkAppended(t, fmt.Sprintf("%d->%d", src, dst), got, prefix, want)
					if g, r := gotRng.Int63(), refRng.Int63(); g != r {
						t.Fatalf("%d->%d: rng stream diverged (route drew a different number of values)", src, dst)
					}
				}
			}
		})
	}
}

// TestFatTreeRootPathsMatchReference pins the fat-tree's I/O routes: the
// ascent to the root and the descent from it, appended after a prefix.
func TestFatTreeRootPathsMatchReference(t *testing.T) {
	ft := NewFatTree(32, testParams())
	idx := linkIndex(t, ft)
	prefix := []*Link{ft.Links()[5]}
	for leaf := 0; leaf < 32; leaf++ {
		up := refRootPath(t, idx, 32, leaf)
		checkAppended(t, fmt.Sprintf("to root from %d", leaf),
			ft.AppendPathToRoot(append([]*Link(nil), prefix...), leaf), prefix, up)
		down := make([]*Link, len(up))
		for i, l := range up {
			down[len(up)-1-i] = idx[[2]int{l.To, l.From}]
		}
		checkAppended(t, fmt.Sprintf("from root to %d", leaf),
			ft.AppendPathFromRoot(append([]*Link(nil), prefix...), leaf), prefix, down)
	}
}

// TestAppendPathAllocFree pins the point of the append API: routing into a
// buffer with room allocates nothing, on every topology.
func TestAppendPathAllocFree(t *testing.T) {
	for _, rc := range routeCases(t) {
		n := rc.topo.NumEndpoints()
		rng := rand.New(rand.NewSource(3))
		buf := make([]*Link, 0, 16)
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			buf = rc.topo.AppendPath(buf[:0], i%n, (i*7+3)%n, rng)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: AppendPath allocates %.1f/op", rc.name, allocs)
		}
	}
}

// BenchmarkICNPath measures one route computation per topology into a
// reused buffer — the per-message routing cost of the machine model. It
// fails if routing allocates.
func BenchmarkICNPath(b *testing.B) {
	for _, rc := range routeCases(b) {
		b.Run(rc.name, func(b *testing.B) {
			n := rc.topo.NumEndpoints()
			rng := rand.New(rand.NewSource(3))
			buf := make([]*Link, 0, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = rc.topo.AppendPath(buf[:0], i%n, (i*7+3)%n, rng)
			}
			b.StopTimer()
			if allocs := testing.AllocsPerRun(100, func() {
				buf = rc.topo.AppendPath(buf[:0], 0, n-1, rng)
			}); allocs != 0 {
				b.Fatalf("AppendPath allocates %.1f/op", allocs)
			}
		})
	}
}
