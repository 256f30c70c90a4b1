package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"umanycore/internal/experiments"
	"umanycore/internal/fleet"
	"umanycore/internal/machine"
	"umanycore/internal/pdes"
	"umanycore/internal/sim"
	"umanycore/internal/svcgraph"
	"umanycore/internal/sweep"
	"umanycore/internal/sweepcache"
	"umanycore/internal/workload"
)

// op is one timed operation of a workload's pass. run times only its calls
// into the simulator; checking and digesting what they returned happens
// after the clock stops.
type op struct {
	label string
	arch  string // machine architecture for per-architecture percentiles; "" elsewhere
	run   func(c opCtx) (opStats, time.Duration, error)
}

// opStats is what one op's simulated outputs and the layer counters around
// its calls report.
type opStats struct {
	digest string
	events uint64 // simulation events fired; 0 when the layer does not report them
	hops   []float64
	fabric *pdes.Stats
	remote uint64
	fig18  *fig18Stats
}

type fig18Stats struct {
	reuses          uint64
	busy            time.Duration
	cells           int64
	lookups, stores int64
}

// setupResult is one set-up of a workload: the pass of ops the timed loop
// repeats and a warm-up call that set-up makes before any op is timed.
type setupResult struct {
	ops     []op
	warm    func()
	records int // trace records synthesized (graph-replay only)
}

type workloadDef struct {
	name  string
	setup func(c opCtx, seed int64, tiny bool, out string) (setupResult, error)
}

var workloads = []workloadDef{
	{"machine-mix", setupMachineMix},
	{"fleet-64", setupFleet64},
	{"graph-replay", setupGraphReplay},
	{"fig18-search", setupFig18Search},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// socialNetworkApps is the catalog every workload draws its requests from.
func socialNetworkApps(c opCtx) []*workload.App {
	var apps []*workload.App
	c.call("workload.SocialNetworkApps", func() { apps = workload.SocialNetworkApps() })
	return apps
}

func appNamed(apps []*workload.App, name string) *workload.App {
	for _, a := range apps {
		if a.Name == name {
			return a
		}
	}
	panic("perfbench: no app " + name)
}

// coupled applies the fleet coupling the §5 figures give every
// machine: half the child RPCs cross servers over a 1µs round trip.
func coupled(cfg machine.Config) machine.Config {
	cfg.RemoteCallFrac = 0.5
	cfg.RemoteRTT = sim.Microsecond
	return cfg
}

// setupMachineMix builds the sweep cell behind Figs 3/6/14–17/19/20: the
// SocialNetwork mix on one machine, interleaved across the hardware-RQ
// uManycore and the two software-scheduler architectures at two fixed
// per-server loads. Every op has its own seed derived from the run seed.
func setupMachineMix(c opCtx, seed int64, tiny bool, _ string) (setupResult, error) {
	apps := socialNetworkApps(c)
	dur := 40 * sim.Millisecond
	if tiny {
		dur = 4 * sim.Millisecond
	}
	archs := []struct {
		label string
		cfg   machine.Config
	}{
		{"umanycore", coupled(machine.UManycoreConfig())},
		{"scaleout", coupled(machine.ScaleOutConfig())},
		{"serverclass", coupled(machine.ServerClassConfig(40))},
	}
	var ops []op
	for _, rps := range []float64{5000, 10000} {
		for _, a := range archs {
			rc := machine.RunConfig{
				App:      apps[0],
				Mix:      workload.SocialNetworkMix(),
				RPS:      rps,
				Duration: dur,
				Warmup:   dur / 5,
				Drain:    20 * dur,
				Seed:     sim.DeriveSeed(seed, int64(len(ops))),
			}
			cfg := a.cfg
			ops = append(ops, op{
				label: fmt.Sprintf("%s@%g", a.label, rps),
				arch:  a.label,
				run: func(c opCtx) (opStats, time.Duration, error) {
					var res *machine.Result
					d := timed(func() { c.call("machine.Run", func() { res = machine.Run(cfg, rc) }) })
					st, err := checkMachine(res)
					return st, d, err
				},
			})
		}
	}
	warm := func() {
		for _, o := range ops[:len(archs)] {
			_, _, _ = o.run(opCtx{})
		}
	}
	return setupResult{ops: ops, warm: warm}, nil
}

// setupFleet64 builds a coupled 64-server fleet behind a power-of-two-
// choices balancer with 10% of child RPCs crossing servers, at the default
// (sequential) shard workers, at 2K RPS per server. About ten events fire
// per PDES window, so host time goes to window barriers and balancer
// snapshots.
func setupFleet64(c opCtx, seed int64, tiny bool, _ string) (setupResult, error) {
	apps := socialNetworkApps(c)
	fc := fleet.Config{
		Servers:         64,
		Machine:         machine.UManycoreConfig(),
		CrossServerFrac: 0.1,
		InterServerRTT:  sim.Microsecond,
		LB:              "p2c",
	}
	dur := 25 * sim.Millisecond
	if tiny {
		dur = sim.Millisecond
	}
	rc := machine.RunConfig{
		Mix:      workload.SocialNetworkMix(),
		Duration: dur,
		Warmup:   dur / 5,
		Drain:    20 * dur,
	}
	app := apps[0]
	ops := make([]op, 2)
	for i := range ops {
		fseed := sim.DeriveSeed(seed, int64(i))
		ops[i] = op{
			label: fmt.Sprintf("fleet64/%d", i),
			run: func(c opCtx) (opStats, time.Duration, error) {
				var res *fleet.Result
				d := timed(func() { c.call("fleet.Run", func() { res = fleet.Run(fc, app, 64*2000, rc, fseed) }) })
				st, err := checkFleet(res)
				return st, d, err
			},
		}
	}
	return setupResult{ops: ops, warm: func() { _, _, _ = ops[0].run(opCtx{}) }}, nil
}

// setupGraphReplay synthesizes SocialNetwork traces from seeds derived
// from the run seed, round-trips each through the CSV format, binds it to
// the catalog, and replays it on 8 servers with every service spread over
// its own hosts, so nearly every RPC crosses the PDES fabric. A trace's
// burstiness sets how deep the simulated queues get, and with them the
// host time of a replay (seeds with the same event count differ by up to a
// fifth), so a pass replays several traces and a run's time does not hang
// on one of them.
func setupGraphReplay(c opCtx, seed int64, tiny bool, _ string) (setupResult, error) {
	const servers, rps, traces = 8, 8 * 10000, 4
	records := 8000
	if tiny {
		records = 400
	}
	apps := socialNetworkApps(c)
	app := appNamed(apps, "HomeT")
	var spec *svcgraph.Spec
	c.call("svcgraph.Spread", func() { spec = svcgraph.Spread(len(app.Catalog.Services), servers) })
	fc := fleet.Config{
		Servers:        servers,
		Machine:        machine.UManycoreConfig(),
		InterServerRTT: sim.Microsecond,
		Graph:          spec,
	}
	// The window covers the whole bound trace; the drain lets its tail finish.
	dur := sim.FromMicros(float64(records) * 1e6 / rps)

	ops := make([]op, traces)
	for i := range ops {
		tseed := sim.DeriveSeed(seed, int64(i))
		var recs []svcgraph.Record
		c.call("svcgraph.Synthesize", func() { recs = svcgraph.Synthesize(tseed, records) })
		var buf bytes.Buffer
		var err error
		c.call("svcgraph.WriteTrace", func() { err = svcgraph.WriteTrace(&buf, recs) })
		if err != nil {
			return setupResult{}, err
		}
		var tr *svcgraph.Trace
		c.call("svcgraph.ParseTrace", func() { tr, err = svcgraph.ParseTrace(&buf) })
		if err != nil {
			return setupResult{}, err
		}
		var rep *svcgraph.Replay
		c.call("svcgraph.Trace.Bind", func() { rep, err = tr.Bind(app, rps) })
		if err != nil {
			return setupResult{}, err
		}
		rc := machine.RunConfig{Duration: dur, Warmup: dur / 10, Drain: 2 * dur, Replay: rep}
		want := uint64(rep.Replayed(dur))
		ops[i] = op{
			label: fmt.Sprintf("replay/%d", i),
			run: func(c opCtx) (opStats, time.Duration, error) {
				var res *fleet.Result
				d := timed(func() { c.call("fleet.Run", func() { res = fleet.Run(fc, app, 0, rc, tseed) }) })
				st, err := checkFleet(res)
				if err == nil && res.Submitted != want {
					err = fmt.Errorf("submitted %d roots, the trace has %d in the window", res.Submitted, want)
				}
				if err == nil && res.RemoteServed == 0 {
					err = errors.New("spread placement served no RPC remotely")
				}
				return st, d, err
			},
		}
	}
	return setupResult{ops: ops, warm: func() { _, _, _ = ops[0].run(opCtx{}) }, records: records}, nil
}

// setupFig18Search runs Fig 18's QoS-throughput searches at reduced
// fidelity for two request types (sibling searches re-run the same
// full-mix probes) on one sweep worker, each op with a fresh on-disk
// cell cache so every lookup misses and every cell is stored. One worker,
// not nproc: on a 2-vCPU shared host a pool of two ran the figure only a
// sixth faster and its run-to-run spread was three to four times that of
// one thread, so it measured the host's second vCPU more than the program.
const fig18Workers = 1

func setupFig18Search(c opCtx, seed int64, tiny bool, out string) (setupResult, error) {
	apps := socialNetworkApps(c)
	o := experiments.Options{
		Seed:     seed,
		Duration: 10 * sim.Millisecond,
		Apps:     []*workload.App{appNamed(apps, "HomeT"), appNamed(apps, "CPost")},
		Parallel: fig18Workers,
	}
	if tiny {
		o.Duration = sim.Millisecond
	}
	o.Warmup = o.Duration / 5
	o.Drain = 10 * o.Duration
	if o.Seed == 0 {
		// Options treats 0 as "use the default seed"; keep seed 0 distinct.
		o.Seed = sim.DeriveSeed(0, 1)
	}
	run := func(c opCtx) (opStats, time.Duration, error) {
		dir := filepath.Join(out, fmt.Sprintf("sweepcache-%d-op%d", os.Getpid(), c.id))
		defer os.RemoveAll(dir)
		reuses := machine.EngineReuses()
		sweep.ResetBusy()
		sweep.ResetProgress(0)
		sweep.ResetCacheCounters()
		var rows []experiments.Fig18Row
		var cache *sweepcache.Cache
		var err error
		d := timed(func() {
			if cache, err = sweepcache.Open(dir); err != nil {
				return
			}
			sweep.SetCache(c.cellCache(cache))
			c.call("experiments.Fig18", func() { rows = experiments.Fig18(o) })
			sweep.SetCache(nil)
		})
		if err != nil {
			return opStats{}, d, err
		}
		done, _ := sweep.Progress()
		hits, misses, invalid := sweep.CacheCounters()
		snap := cache.Snapshot()
		st := opStats{digest: digestFig18(rows), fig18: &fig18Stats{
			reuses:  machine.EngineReuses() - reuses,
			busy:    sweep.Busy(),
			cells:   done,
			lookups: snap.Hits + snap.Misses,
			stores:  snap.Stores,
		}}
		switch {
		case len(rows) != 3*len(o.Apps):
			err = fmt.Errorf("%d rows, want %d", len(rows), 3*len(o.Apps))
		case hits != 0 || snap.Hits != 0 || invalid != 0:
			err = fmt.Errorf("fresh cache: %d hits, %d invalid", hits, invalid)
		case misses != done || snap.Stores != done:
			err = fmt.Errorf("fresh cache: %d cells, %d misses, %d stores", done, misses, snap.Stores)
		}
		for _, r := range rows {
			if err == nil && (math.IsNaN(r.MaxRPS) || r.MaxRPS <= 0) {
				err = fmt.Errorf("row %s/%s: max RPS %v", r.Arch, r.App, r.MaxRPS)
			}
		}
		return st, d, err
	}
	// Warm-up: Fig18's first stage, a contention-free run of the mix on
	// each architecture.
	warm := func() {
		rc := machine.RunConfig{
			App: apps[0], Mix: workload.SocialNetworkMix(), RPS: 100,
			Duration: 2 * sim.Second, Warmup: o.Warmup, Drain: o.Drain, Seed: o.Seed,
		}
		for _, cfg := range []machine.Config{machine.ServerClassConfig(40), machine.ScaleOutConfig(), machine.UManycoreConfig()} {
			machine.Run(coupled(cfg), rc)
		}
	}
	return setupResult{ops: []op{{label: "fig18", run: run}}, warm: warm}, nil
}

func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// conserved checks that every root a machine accepted is accounted for.
func conserved(who string, submitted, completed, rejected uint64, unfinished int64) error {
	if unfinished < 0 || submitted != completed+rejected+uint64(unfinished) {
		return fmt.Errorf("%s: submitted %d != completed %d + rejected %d + unfinished %d",
			who, submitted, completed, rejected, unfinished)
	}
	if submitted == 0 {
		return fmt.Errorf("%s: no roots submitted", who)
	}
	return nil
}

func checkMachine(res *machine.Result) (opStats, error) {
	b, err := machine.EncodeResult(res)
	if err != nil {
		return opStats{}, err
	}
	st := opStats{digest: digest(b), events: res.Events, hops: []float64{res.MeanHops}}
	return st, conserved("machine", res.Submitted, res.Completed, res.Rejected, res.Unfinished)
}

func checkFleet(res *fleet.Result) (opStats, error) {
	b, err := fleet.EncodeResult(res)
	if err != nil {
		return opStats{}, err
	}
	f := res.Fabric
	if f == nil {
		return opStats{}, errors.New("coupled fleet reported no fabric stats")
	}
	// The codec leaves the fabric out; its deterministic aggregates are
	// simulated outputs too.
	b = fmt.Appendf(b, "|%d|%d|%d|%d|%d|%d|%d", res.EventsProcessed,
		f.Shards, f.Rounds, f.MessagesSent, f.MessagesDelivered, f.WindowEvents, f.AdvanceSum)
	st := opStats{digest: digest(b), events: res.EventsProcessed, fabric: f, remote: res.RemoteServed}
	if err := conserved("fleet", res.Submitted, res.Completed, res.Rejected, res.Unfinished); err != nil {
		return st, err
	}
	var sub uint64
	for i, s := range res.PerServer {
		st.hops = append(st.hops, s.MeanHops)
		sub += s.Submitted
		if s.Submitted == 0 {
			continue // an idle server has nothing to conserve
		}
		if err := conserved(fmt.Sprintf("server %d", i), s.Submitted, s.Completed, s.Rejected, s.Unfinished); err != nil {
			return st, err
		}
	}
	if sub != res.Submitted {
		return st, fmt.Errorf("servers submitted %d roots, fleet %d", sub, res.Submitted)
	}
	if f.MessagesSent != f.MessagesDelivered {
		return st, fmt.Errorf("fabric sent %d messages, delivered %d", f.MessagesSent, f.MessagesDelivered)
	}
	return st, nil
}

func digestFig18(rows []experiments.Fig18Row) string {
	var b []byte
	for _, r := range rows {
		b = fmt.Appendf(b, "%s|%s|%g\n", r.Arch, r.App, r.MaxRPS)
	}
	return digest(b)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}
