package experiments

import (
	"umanycore/internal/machine"
	"umanycore/internal/power"
	"umanycore/internal/sim"
	"umanycore/internal/stats"
	"umanycore/internal/sweep"
	"umanycore/internal/sweepcache"
	"umanycore/internal/workload"
)

// E2ERow is one (application, load, architecture) cell of the end-to-end
// grid behind Figures 14 (tail), 16 (average) and 17 (tail-to-average).
// Per §5, the server receives the full SocialNetwork request mix at the
// given total RPS; each row reports one request type's latency within it.
// Latency carries the full per-type summary; AvgMicros, TailMicros and
// Completed are its Mean/P99/N kept as plain columns for the text tables,
// so the JSON encoding elides them (Summary marshals with a stable field
// order shared by umprof and umbench).
type E2ERow struct {
	App         string        `json:"app"`
	RPS         float64       `json:"rps"`
	Arch        string        `json:"arch"`
	Latency     stats.Summary `json:"latency"`
	AvgMicros   float64       `json:"-"`
	TailMicros  float64       `json:"-"`
	TailToAvg   float64       `json:"p99_to_avg"`
	Utilization float64       `json:"util"`
	Completed   uint64        `json:"-"`
	Unfinished  int64         `json:"unfinished"`
}

// mixedRun drives one machine with the SocialNetwork mix at totalRPS, its
// seed keyed by the (arch, load) cell.
func mixedRun(cfg machine.Config, o Options, totalRPS float64) *machine.Result {
	return mixedRunAt(cfg, o, totalRPS, o.Duration)
}

// EndToEnd runs the full §6.1–§6.4 grid: every architecture × load, with
// per-request-type rows extracted from the mixed run. Cells are independent
// simulations, so they fan out over the sweep pool; rows come back in grid
// order (arch-major, then load, then root ID) for any worker count, and an
// installed cell cache skips cells simulated by a previous run.
func EndToEnd(o Options) []E2ERow {
	o = o.normalized()
	catalog := o.Apps[0].Catalog
	grid := sweep.MapCached2(o.Parallel, archSet(), o.Loads,
		func(cfg machine.Config, rps float64) []byte {
			return runPre("run/result", cfg, o.mixedRC(rps, o.Duration))
		},
		resultCodec,
		func(cfg machine.Config, rps float64) *machine.Result {
			return mixedRun(cfg, o, rps)
		})
	var rows []E2ERow
	for i, cfg := range archSet() {
		for j, rps := range o.Loads {
			res := grid[i][j]
			for _, root := range sortedRoots(res.PerRoot) {
				sum := res.PerRoot[root]
				ratio := 0.0
				if sum.Mean > 0 {
					ratio = sum.P99 / sum.Mean
				}
				rows = append(rows, E2ERow{
					App:         catalog.Service(root).Name,
					RPS:         rps,
					Arch:        cfg.Name,
					Latency:     sum,
					AvgMicros:   sum.Mean,
					TailMicros:  sum.P99,
					TailToAvg:   ratio,
					Utilization: res.Utilization,
					Completed:   uint64(sum.N),
					Unfinished:  res.Unfinished,
				})
			}
		}
	}
	return rows
}

// Reduction summarizes a figure's headline ratios: the mean across apps of
// baseline/μManycore at each load.
type Reduction struct {
	Baseline string
	Metric   string // "tail" or "avg"
	// ByLoad maps RPS -> mean ratio across apps.
	ByLoad map[float64]float64
}

// Reductions computes the Fig 14/16 headline numbers ("μManycore reduces
// the tail latency over ServerClass by 6.3×, 8.3×, and 16.7×...") from an
// EndToEnd grid.
func Reductions(rows []E2ERow, metric string) []Reduction {
	get := func(r E2ERow) float64 {
		if metric == "avg" {
			return r.AvgMicros
		}
		return r.TailMicros
	}
	type key struct {
		app, arch string
		rps       float64
	}
	cell := make(map[key]float64)
	loads := map[float64]bool{}
	apps := map[string]bool{}
	for _, r := range rows {
		cell[key{r.App, r.Arch, r.RPS}] = get(r)
		loads[r.RPS] = true
		apps[r.App] = true
	}
	var out []Reduction
	for _, base := range []string{"ServerClass-40", "ScaleOut"} {
		red := Reduction{Baseline: base, Metric: metric, ByLoad: map[float64]float64{}}
		for rps := range loads {
			var ratios []float64
			for app := range apps {
				b := cell[key{app, base, rps}]
				u := cell[key{app, "uManycore", rps}]
				if b > 0 && u > 0 {
					ratios = append(ratios, b/u)
				}
			}
			red.ByLoad[rps] = stats.Mean(ratios)
		}
		out = append(out, red)
	}
	return out
}

// Fig18Row is one request type's QoS-bounded maximum throughput per
// architecture: the highest total mix RPS at which this type's P99 stays
// within 5× its contention-free average.
type Fig18Row struct {
	App    string
	Arch   string
	MaxRPS float64
}

// Fig18 reproduces Figure 18. The searched request types are restricted to
// o.Apps (the full default suite covers all eight); the offered load is
// always the full mix. A probe simulates the whole mix at one RPS and reads
// neither the searched type nor its QoS limit, so the searches of one
// architecture share their probes: each architecture runs as one sweep job
// that bisects every type, in mix order, against one probe table
// (fig18Search). The three jobs are independent; the probes inside a job
// stay sequential, as a search is inherently iterative.
func Fig18(o Options) []Fig18Row {
	o = o.normalized()
	catalog := o.Apps[0].Catalog
	wanted := map[int]bool{}
	for _, a := range o.Apps {
		wanted[a.Root] = true
	}
	mix := workload.SocialNetworkMix()

	// Stage 1: contention-free per-type averages, one run per architecture.
	archs := archSet()
	cfRuns := sweep.MapCached(o.Parallel, archs,
		func(_ int, cfg machine.Config) []byte {
			return runPre("run/result", cfg, o.mixedRC(100, 2*sim.Second))
		},
		resultCodec,
		func(_ int, cfg machine.Config) *machine.Result {
			return mixedRunAt(cfg, o, 100, 2*sim.Second)
		})

	// Stage 2: one QoS search job per architecture, over every wanted type.
	type archJob struct {
		cfg   machine.Config
		roots []fig18Root
		hiRPS float64
	}
	jobs := make([]archJob, len(archs))
	for i, cfg := range archs {
		jobs[i] = archJob{cfg: cfg, hiRPS: 400000}
		if cfg.Name == "ServerClass-40" {
			jobs[i].hiRPS = 80000
		}
		for _, e := range mix {
			if wanted[e.Root] {
				limit := 5 * cfRuns[i].PerRoot[e.Root].Mean
				jobs[i].roots = append(jobs[i].roots, fig18Root{Root: e.Root, Limit: limit})
			}
		}
	}
	maxes := sweep.MapCached(o.Parallel, jobs,
		func(_ int, j archJob) []byte {
			// The architecture's searches are one cell: their probes are an
			// iterative refinement, so the cacheable unit is the search
			// outcomes. Everything a probe reads is in the preimage — the
			// searched config, the types and QoS limits from stage 1, the
			// search bounds and tolerance, and the probe RunConfig (rps 0:
			// the search sets it).
			rc := o.mixedRC(0, o.Duration)
			if rc.Obs != nil || rc.Telemetry != nil {
				return nil
			}
			return sweepcache.NewKey("fig18/arch").
				Any("cfg", j.cfg).
				Any("roots", j.roots).
				Float("lo", fig18SearchLoRPS).
				Float("hi", j.hiRPS).
				Float("tol", fig18SearchTol).
				Any("rc", rc).
				Preimage()
		},
		sweep.Float64sCodec(),
		func(_ int, j archJob) []float64 {
			probe := func(rps float64) fig18Verdict {
				return newFig18Verdict(mixedRunAt(j.cfg, o, rps, o.Duration))
			}
			return fig18Search(probe, j.roots, fig18SearchLoRPS, j.hiRPS)
		})
	var rows []Fig18Row
	for i, j := range jobs {
		for k, r := range j.roots {
			rows = append(rows, Fig18Row{App: catalog.Service(r.Root).Name, Arch: j.cfg.Name, MaxRPS: maxes[i][k]})
		}
	}
	return rows
}

// The QoS search's lower bound and tolerance. Both are part of every
// fig18/arch cell's preimage: changing either invalidates cached outcomes.
const (
	fig18SearchLoRPS = 2000
	fig18SearchTol   = 0.06
)

// fig18Root is one searched request type and its QoS limit, 5× its
// contention-free average latency.
type fig18Root struct {
	Root  int
	Limit float64
}

// fig18Verdict is what the QoS test reads from one probe: whether the run
// as a whole was healthy (it completed requests, and rejected or left
// unfinished at most 1% of its submissions) and the P99 of every request
// type with at least one measured request.
type fig18Verdict struct {
	ok  bool
	p99 map[int]float64
}

func newFig18Verdict(res *machine.Result) fig18Verdict {
	bad := float64(res.Rejected) + float64(res.Unfinished)
	v := fig18Verdict{
		ok:  res.Completed > 0 && bad <= 0.01*float64(res.Submitted),
		p99: map[int]float64{},
	}
	for root, sum := range res.PerRoot {
		if sum.N > 0 {
			v.p99[root] = sum.P99
		}
	}
	return v
}

// fig18Search returns each root's QoS-bounded maximum load in [lo, hi],
// bisecting the roots in order against one probe table: probe runs only the
// first time an RPS is asked for, and a later search that reaches the same
// RPS reads the stored verdict. Every root sees the probe sequence and
// verdicts a search of its own would, so its answer is unchanged.
func fig18Search(probe func(rps float64) fig18Verdict, roots []fig18Root, lo, hi float64) []float64 {
	table := map[float64]fig18Verdict{}
	maxes := make([]float64, len(roots))
	for i, r := range roots {
		ok := func(rps float64) bool {
			v, seen := table[rps]
			if !seen {
				v = probe(rps)
				table[rps] = v
			}
			p99, measured := v.p99[r.Root]
			return v.ok && measured && p99 <= r.Limit
		}
		maxes[i] = machine.BinarySearchMax(ok, lo, hi, fig18SearchTol)
	}
	return maxes
}

// mixedRC is the RunConfig of one mixed-workload cell — the single
// definition shared by the cells that execute it and the cache preimages
// that address it, so the two can never drift apart.
//
// Every cell of the mixed grid shares the base seed: the cross-arch and
// cross-load ratios the figures report are paired comparisons over the
// same arrival randomness, exactly as in the sequential driver. (A
// constant is still a pure function of the job, so the sweep determinism
// contract holds.)
func (o Options) mixedRC(rps float64, dur sim.Time) machine.RunConfig {
	rc := o.runCfg(o.Apps[0], rps)
	rc.Duration = dur
	rc.Mix = workload.SocialNetworkMix()
	return rc
}

func mixedRunAt(cfg machine.Config, o Options, rps float64, dur sim.Time) *machine.Result {
	return machine.Run(cfg, o.mixedRC(rps, dur))
}

// Sec68Row is one cell of the §6.8 iso-area comparison: the 128-core
// ServerClass vs μManycore within the mixed workload.
type Sec68Row struct {
	App       string
	RPS       float64
	SC128Tail float64
	UMCTail   float64
	TailRatio float64
}

// Sec68Result bundles the iso-area study: per-app/load tails plus the
// area/power bookkeeping from the CACTI/McPAT stand-in.
type Sec68Result struct {
	Rows []Sec68Row
	// MeanTailRatio across apps and loads (paper: ≈7.3×).
	MeanTailRatio float64
	// PowerRatio of the 128-core ServerClass over μManycore (paper: 3.2×).
	PowerRatio float64
	// AreaRatio of the two packages (≈1 by construction).
	AreaRatio float64
}

// Sec68 reproduces §6.8: scale ServerClass to 128 cores (iso-area with
// μManycore) and compare tails and power.
func Sec68(o Options) Sec68Result {
	o = o.normalized()
	catalog := o.Apps[0].Catalog
	sc := withFleetCoupling(machine.ServerClassConfig(128))
	umc := withFleetCoupling(machine.UManycoreConfig())
	var out Sec68Result
	var ratios []float64
	grid := sweep.MapCached2(o.Parallel, o.Loads, []machine.Config{sc, umc},
		func(rps float64, cfg machine.Config) []byte {
			return runPre("run/result", cfg, o.mixedRC(rps, o.Duration))
		},
		resultCodec,
		func(rps float64, cfg machine.Config) *machine.Result {
			return mixedRun(cfg, o, rps)
		})
	for i, rps := range o.Loads {
		scRes, uRes := grid[i][0], grid[i][1]
		for _, root := range sortedRoots(scRes.PerRoot) {
			scSum := scRes.PerRoot[root]
			uSum, ok := uRes.PerRoot[root]
			if !ok || uSum.P99 <= 0 {
				continue
			}
			row := Sec68Row{
				App: catalog.Service(root).Name, RPS: rps,
				SC128Tail: scSum.P99, UMCTail: uSum.P99,
				TailRatio: scSum.P99 / uSum.P99,
			}
			ratios = append(ratios, row.TailRatio)
			out.Rows = append(out.Rows, row)
		}
	}
	out.MeanTailRatio = stats.Mean(ratios)
	out.PowerRatio = power.ServerClassChip(128).TotalPower() / power.UManycoreChip().TotalPower()
	out.AreaRatio = power.ServerClassChip(128).TotalArea() / power.UManycoreChip().TotalArea()
	return out
}

// appsSubset returns named apps from the default suite (helper shared by
// tests and benchmarks).
func appsSubset(names ...string) []*workload.App {
	all := workload.SocialNetworkApps()
	var out []*workload.App
	for _, n := range names {
		for _, a := range all {
			if a.Name == n {
				out = append(out, a)
			}
		}
	}
	return out
}
