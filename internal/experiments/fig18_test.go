package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"umanycore/internal/machine"
	"umanycore/internal/sim"
	"umanycore/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from the current code")

// appsNamed returns the SocialNetwork apps with the given names, in order.
func appsNamed(t *testing.T, names ...string) []*workload.App {
	t.Helper()
	all := workload.SocialNetworkApps()
	var out []*workload.App
	for _, n := range names {
		for _, a := range all {
			if a.Name == n {
				out = append(out, a)
			}
		}
	}
	if len(out) != len(names) {
		t.Fatalf("apps %v: found %d", names, len(out))
	}
	return out
}

// fig18Options is Fig 18 at reduced fidelity: the given request types and
// arrival window, warm-up a fifth of it and drain ten times it.
func fig18Options(t *testing.T, dur sim.Time, parallel int, apps ...string) Options {
	t.Helper()
	o := DefaultOptions()
	o.Apps = appsNamed(t, apps...)
	o.Duration = dur
	o.Warmup = dur / 5
	o.Drain = 10 * dur
	o.Parallel = parallel
	return o
}

// TestFig18Golden pins Fig 18's rows at reduced fidelity (HomeT and CPost,
// 5 ms windows) byte for byte. A change to the search, the probe verdict or
// the simulator shows here. If a model change is intentional, regenerate
// with:
//
//	go test ./internal/experiments -run TestFig18Golden -update
func TestFig18Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three QoS searches (~5s)")
	}
	got, err := json.MarshalIndent(Fig18(fig18Options(t, 5*sim.Millisecond, 0, "HomeT", "CPost")), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "fig18_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Fig 18 rows drifted from golden (intentional model change? regenerate per test comment).\n got: %s\nwant: %s", got, want)
	}
}

// TestFig18SearchSharesProbes drives the per-architecture search with a
// counting fake probe over a noisy, non-monotone oracle: every distinct RPS
// must be probed exactly once, and every root's answer must equal an
// independent search of its own over the same oracle.
func TestFig18SearchSharesProbes(t *testing.T) {
	oracle := func(rps float64) fig18Verdict {
		v := fig18Verdict{ok: rps < 350000, p99: map[int]float64{}}
		for root := 1; root <= 4; root++ {
			v.p99[root] = float64(root) * rps / 1000 * (1 + 0.3*math.Sin(rps/7777))
		}
		return v
	}
	roots := []fig18Root{
		{Root: 1, Limit: 250},
		{Root: 2, Limit: 300},
		{Root: 3, Limit: 40},
		{Root: 4, Limit: 1e9}, // capped by the global ok flag
		{Root: 2, Limit: 300}, // a repeat re-reads every probe
		{Root: 5, Limit: 1e9}, // never measured: fails at lo
	}
	const lo, hi = 2000, 400000

	calls := map[float64]int{}
	got := fig18Search(func(rps float64) fig18Verdict {
		calls[rps]++
		return oracle(rps)
	}, roots, lo, hi)

	asked := map[float64]bool{}
	total := 0
	for i, r := range roots {
		want := machine.BinarySearchMax(func(rps float64) bool {
			asked[rps] = true
			total++
			v := oracle(rps)
			p99, measured := v.p99[r.Root]
			return v.ok && measured && p99 <= r.Limit
		}, lo, hi, fig18SearchTol)
		if got[i] != want {
			t.Errorf("root %d (limit %v): shared search = %v, own search = %v", r.Root, r.Limit, got[i], want)
		}
	}
	for rps, n := range calls {
		if n != 1 {
			t.Errorf("rps %v probed %d times", rps, n)
		}
		if !asked[rps] {
			t.Errorf("rps %v probed but no independent search asks for it", rps)
		}
	}
	if len(calls) != len(asked) {
		t.Errorf("%d distinct probes, want %d", len(calls), len(asked))
	}
	if got[5] != lo {
		t.Errorf("unmeasured root = %v, want lo", got[5])
	}
	if total <= len(calls) {
		t.Fatalf("searches asked %d times for %d distinct loads: nothing was shared", total, len(calls))
	}
	t.Logf("%d verdicts from %d probes", total, len(calls))
}
