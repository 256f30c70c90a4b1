// Command perfbench measures the host time the simulator takes, end to end
// and layer by layer, on four workloads:
//
//	machine-mix   machine.Run of the SocialNetwork mix on uManycore, ScaleOut
//	              and ServerClass-40 at 5K and 10K RPS per server
//	fleet-64      coupled 64-server fleet.Run, p2c balancing, 10% cross-server
//	graph-replay  8-server fleet.Run replaying each of four synthesized
//	              traces over a spread service graph
//	fig18-search  experiments.Fig18 at reduced fidelity on one sweep
//	              worker with a fresh on-disk cell cache per op
//
// Usage (normally through run.sh, which builds this package):
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// A run sets its workload up five times (input generation plus one
// warm-up op; setup_s is the median), then repeats the workload's pass of
// ops back to back for the given seconds. The end-to-end times are host
// times scaled to a reference-speed host: a reference kernel (refDES, in a
// child process) runs around every set-up and once per second of timed
// ops, and every set-up, pass and op time of the run is multiplied by
// refNominal over the median of the run's reference times, which cancels
// much of a shared host's drift between runs. The raw times are printed
// beside them. Every op checks its simulated
// outputs: conservation identities, and a digest that must equal the one
// recorded for the seed in digests.json (or, for a seed not recorded
// there, the digest the op produced the first time in this run).
//
// With -trace 0 the last line reports the end-to-end metrics. With
// -trace 1 the run spends half its time untraced and half traced (spans
// around every public call, a CPU profile, memory statistics), prints the
// per-layer report, writes the spans and host record to
// <out>/trace-<workload>-<seed>.json, and reports the per-layer metrics.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 5

//go:embed digests.json
var digestsJSON []byte

// recordedDigests maps "<workload>/<seed>" to the digest of each op of the
// workload's pass at full size.
func recordedDigests() (map[string][]string, error) {
	var m map[string][]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	out      string
	// want, when non-nil, replaces the recorded digests for this run.
	want []string
}

func main() {
	if os.Getenv(refEnv) == "1" {
		fmt.Println(refDES().Nanoseconds())
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: machine-mix, fleet-64, graph-replay or fig18-search")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "host seconds to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.BoolVar(&cfg.tiny, "tiny", false, "tiny inputs (smoke test)")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for traces and per-op caches")
	record := fs.Bool("record", false, "print this run's first-pass digests for digests.json to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := findWorkload(cfg.workload); !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload in {machine-mix, fleet-64, graph-replay, fig18-search}, -seconds > 0, -trace 0 or 1\n")
		return 2
	}
	cfg.trace = traceFlag == 1
	if *record {
		cfg.want = []string{} // establish the digests from this run
	}

	res, err := bench(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *record {
		b, _ := json.Marshal(map[string][]string{digestKey(cfg.workload, cfg.seed): res.firstDigests})
		fmt.Fprintf(stderr, "record: %s\n", b)
	}
	h := res.host
	fmt.Fprintf(stdout, "host: nproc=%d cpu=%q go=%s git=%s host.ref_ms=%.3f host.memref_ms=%.3f\n",
		h.NProc, h.CPU, h.Go, h.Git, res.refMs, res.memRefMs)
	fmt.Fprintf(stdout, "ops: %d attempted, %d failed (failed_frac %.4g), %d passes of %d ops\n",
		res.attempted, res.failed, float64(res.failed)/float64(res.attempted), res.passes, res.passLen)
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "%-32s %s\n", m.name, m.text())
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]metricValue{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

func digestKey(workload string, seed int64) string { return fmt.Sprintf("%s/%d", workload, seed) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one reported number. A per-layer metric whose layer did no
// work on the workload is absent: the JSON line carries 0 for it (every
// declared metric must appear there) and the report prints "absent".
type metric struct {
	name, unit string
	value      float64
	base       string
	absent     bool
}

func (m metric) text() string {
	if m.absent {
		return "absent"
	}
	s := fmt.Sprintf("%.6g %s", m.value, m.unit)
	if m.base != "" {
		s += "  (" + m.base + ")"
	}
	return s
}

// endToEnd and perLayer declare every metric and its unit, in report
// order; BENCHMARK.json lists the same names.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"op_ms_p50", "ms"},
	{"max_rss_mb", "MB"},
}

var perLayer = [][2]string{
	{"op_ms_p90", "ms"},
	{"sim.events", "count/op"},
	{"sim.ns_per_event", "ns"},
	{"sim.cpu_share", "ratio"},
	{"go.mallocs_per_op", "count/op"},
	{"go.alloc_kb_per_op", "KB/op"},
	{"go.gc_cycles", "count/op"},
	{"go.cpu_share", "ratio"},
	{"machine.umanycore.op_ms_p50", "ms"},
	{"machine.scaleout.op_ms_p50", "ms"},
	{"machine.serverclass.op_ms_p50", "ms"},
	{"machine.cpu_share", "ratio"},
	{"rq.cpu_share", "ratio"},
	{"sched.cpu_share", "ratio"},
	{"icn.cpu_share", "ratio"},
	{"icn.mean_hops", "hops"},
	{"stats.cpu_share", "ratio"},
	{"pdes.rounds", "count/op"},
	{"pdes.events_per_window", "count"},
	{"pdes.lookahead_util", "ratio"},
	{"pdes.cpu_share", "ratio"},
	{"fleet.cpu_share", "ratio"},
	{"pdes.messages", "count/op"},
	{"fleet.remote_served", "count/op"},
	{"svcgraph.cpu_share", "ratio"},
	{"svcgraph.synth_ms", "ms"},
	{"svcgraph.write_ms", "ms"},
	{"svcgraph.parse_ms", "ms"},
	{"svcgraph.bind_ms", "ms"},
	{"svcgraph.records", "count"},
	{"machine.runs", "count/op"},
	{"experiments.fig18_s", "s"},
	{"sweep.cells", "count/op"},
	{"sweep.busy_s", "s/op"},
	{"sweep.efficiency", "ratio"},
	{"sweep.cell_ms_max", "ms"},
	{"sweepcache.lookups", "count/op"},
	{"sweepcache.stores", "count/op"},
	{"sweepcache.lookup_us_p50", "us"},
	{"sweepcache.store_us_p50", "us"},
	{"host.ref_ms", "ms"},
	{"host.memref_ms", "ms"},
	{"host.simref_ms", "ms"},
	{"host.raw_wall_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

type result struct {
	host              hostInfo
	refMs, memRefMs   float64
	attempted, failed int
	passes, passLen   int
	metrics           []metric
	firstDigests      []string
	untraced, traced  phase
	refs              []time.Duration // reference times of the run
	setupTrace        *tracer
}

// bench sets the workload up, measures it, and computes the metrics of
// the run's mode.
func bench(cfg config, logw io.Writer) (*result, error) {
	w, _ := findWorkload(cfg.workload)
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	res := &result{host: readHost()}
	res.refMs, res.memRefMs = hostRefMs()

	var setupTr *tracer
	if cfg.trace {
		setupTr = newTracer()
	}
	var sr setupResult
	rawSetup := make([]time.Duration, setups)
	var r runner
	if err := r.ref(); err != nil {
		return nil, err
	}
	for k := range rawSetup {
		t0 := time.Now()
		var err error
		if sr, err = w.setup(opCtx{tr: setupTr, id: -1, span: -1}, cfg.seed, cfg.tiny, cfg.out); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		sr.warm()
		rawSetup[k] = time.Since(t0)
		if err := r.ref(); err != nil {
			return nil, err
		}
	}
	res.setupTrace = setupTr

	want := cfg.want
	if want == nil {
		recorded, err := recordedDigests()
		if err != nil {
			return nil, err
		}
		if !cfg.tiny {
			want = recorded[digestKey(cfg.workload, cfg.seed)]
		}
		if want != nil && len(want) != len(sr.ops) {
			return nil, fmt.Errorf("digests.json has %d digests for %s, the pass has %d ops", len(want), digestKey(cfg.workload, cfg.seed), len(sr.ops))
		}
	}
	want = append([]string(nil), want...)
	if len(want) == 0 {
		want = make([]string, len(sr.ops))
	}
	r.ops, r.want, r.log = sr.ops, want, logw

	if !cfg.trace {
		ph, err := r.phase(cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		f := r.scale()
		ph.scale(f)
		res.untraced, res.refs = ph, r.refs
		res.attempted, res.failed, res.passes = ph.attempted, ph.failed, len(ph.passes)
		res.metrics = []metric{
			{name: "setup_s", value: scaleBy(median(rawSetup), f).Seconds(), base: fmt.Sprintf("median of %d set-ups; raw %.4g s", setups, median(rawSetup).Seconds())},
			{name: "wall_s", value: median(ph.passes).Seconds(), base: fmt.Sprintf("median of %d passes of %d ops; raw %.4g s", len(ph.passes), len(sr.ops), median(ph.rawPasses).Seconds())},
			{name: "op_ms_p50", value: ph.opMedian().Seconds() * 1e3, base: fmt.Sprintf("mean over the pass's %d ops of each op's median; %d ops", len(sr.ops), len(ph.ops))},
			{name: "max_rss_mb", value: maxRSSMB()},
		}
	} else {
		var err error
		if res.untraced, err = r.phase(cfg.seconds/2, nil); err != nil {
			return nil, err
		}
		tr := newTracer()
		var prof bytes.Buffer
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		res.traced, err = r.phase(cfg.seconds/2, tr)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		f := r.scale()
		res.untraced.scale(f)
		res.traced.scale(f)
		res.refs = r.refs
		runtime.ReadMemStats(&m1)
		shares, err := layerShares(prof.Bytes())
		if err != nil {
			return nil, err
		}
		res.attempted = res.untraced.attempted + res.traced.attempted
		res.failed = res.untraced.failed + res.traced.failed
		res.passes = len(res.untraced.passes) + len(res.traced.passes)
		res.metrics = layerMetrics(res, tr, shares, &m0, &m1, sr.records)
		if err := writeTrace(cfg, res, tr); err != nil {
			return nil, err
		}
	}
	res.passLen = len(sr.ops)
	res.firstDigests = want
	units := map[string]string{}
	for _, d := range append(append([][2]string(nil), endToEnd...), perLayer...) {
		units[d[0]] = d[1]
	}
	for i := range res.metrics {
		res.metrics[i].unit = units[res.metrics[i].name]
	}
	return res, nil
}

// refEvery is how much op time a run times per reference run.
const refEvery = time.Second

// runner repeats a workload's pass and checks every op.
type runner struct {
	ops    []op
	want   []string // per-op expected digest; "" until the op first succeeds
	nextID int
	logged int
	log    io.Writer
	refs   []time.Duration // the run's reference times
}

// ref runs the reference kernel once and keeps its time.
func (r *runner) ref() error {
	d, err := runRef()
	r.refs = append(r.refs, d)
	return err
}

// scale is the factor that takes the run's host times to the
// reference-speed host.
func (r *runner) scale() float64 { return float64(refNominal) / float64(median(r.refs)) }

type opTiming struct {
	label, arch string
	d           time.Duration // scaled to the reference-speed host
	raw         time.Duration
	st          opStats
}

type phase struct {
	passes            []time.Duration // host time of each pass's ops, scaled once the run ends
	rawPasses         []time.Duration // the same, unscaled
	ops               []opTiming
	attempted, failed int
}

// scale multiplies the phase's pass and op times by f.
func (p *phase) scale(f float64) {
	for i := range p.passes {
		p.passes[i] = scaleBy(p.passes[i], f)
	}
	for i := range p.ops {
		p.ops[i].d = scaleBy(p.ops[i].d, f)
	}
}

// durations returns the host times of the phase's ops of architecture arch
// ("" for every op).
func (p phase) durations(arch string) []time.Duration {
	var out []time.Duration
	for _, o := range p.ops {
		if arch == "" || o.arch == arch {
			out = append(out, o.d)
		}
	}
	return out
}

// opMedian is the median host time of each op of the pass, averaged over
// the pass's ops. A pass mixes ops of very different cost, so the median of
// all ops together would sit in a gap between them and jump between runs.
func (p phase) opMedian() time.Duration {
	byLabel := map[string][]time.Duration{}
	for _, o := range p.ops {
		byLabel[o.label] = append(byLabel[o.label], o.d)
	}
	var sum time.Duration
	for _, ds := range byLabel {
		sum += median(ds)
	}
	return sum / time.Duration(max(1, len(byLabel)))
}

// phase runs whole passes back to back until seconds have elapsed (at
// least one pass), and after each pass one reference run per refEvery of
// op time.
func (r *runner) phase(seconds float64, tr *tracer) (phase, error) {
	var ph phase
	start := time.Now()
	var sinceRef time.Duration
	for {
		var pass time.Duration
		for i, o := range r.ops {
			c := opCtx{tr: tr, id: r.nextID, span: tr.begin(o.label, r.nextID, -1)}
			r.nextID++
			st, d, err := runOp(o, c)
			tr.end(c.span)
			if err == nil && r.want[i] == "" {
				r.want[i] = st.digest
			}
			if err == nil && st.digest != r.want[i] {
				err = fmt.Errorf("output digest %s, want %s", st.digest, r.want[i])
			}
			ph.attempted++
			if err != nil {
				ph.failed++
				if r.logged < 10 {
					r.logged++
					fmt.Fprintf(r.log, "perfbench: op %d (%s) failed: %v\n", c.id, o.label, err)
				}
			}
			pass += d
			ph.ops = append(ph.ops, opTiming{o.label, o.arch, d, d, st})
		}
		ph.rawPasses = append(ph.rawPasses, pass)
		ph.passes = append(ph.passes, pass)
		for sinceRef += pass; sinceRef >= refEvery; sinceRef -= refEvery {
			if err := r.ref(); err != nil {
				return ph, err
			}
		}
		// Start another pass only while the last one would still fit in the
		// time left.
		if time.Since(start).Seconds()+pass.Seconds() > seconds {
			return ph, nil
		}
	}
}

// runOp runs one op; a panic fails the op instead of the run.
func runOp(o op, c opCtx) (st opStats, d time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return o.run(c)
}

// layerMetrics derives the per-layer metrics of a traced run: counters
// from the traced phase's results, self time from its CPU profile, and
// set-up spans from the set-ups.
func layerMetrics(res *result, tr *tracer, shares map[string]float64, m0, m1 *runtime.MemStats, records int) []metric {
	ph := res.traced
	n := float64(len(ph.ops))
	nops := fmt.Sprintf("%d traced ops", len(ph.ops))
	var out []metric
	add := func(name string, v float64, base string, present bool) {
		out = append(out, metric{name: name, value: v, base: base, absent: !present})
	}
	profBase := fmt.Sprintf("self time in the CPU profile of %d traced ops", len(ph.ops))
	share := func(layer string) { add(layer+".cpu_share", shares[layer], profBase, shares[layer] > 0) }

	un := res.untraced.durations("")
	add("op_ms_p90", percentile(un, 0.9).Seconds()*1e3, fmt.Sprintf("%d untraced ops", len(un)), true)

	var events uint64
	var evTime time.Duration
	var hops []float64
	var fab struct {
		ops                                int
		rounds, msgs, windowEvents, remote uint64
		advance, lookahead                 float64
	}
	var f18 struct {
		ops                            int
		reuses, cells, lookups, stores float64
		busy, wall                     time.Duration
	}
	for _, o := range ph.ops {
		if o.st.events > 0 {
			events += o.st.events
			evTime += o.d
		}
		for _, h := range o.st.hops {
			if h > 0 {
				hops = append(hops, h)
			}
		}
		if f := o.st.fabric; f != nil {
			fab.ops++
			fab.rounds += f.Rounds
			fab.msgs += f.MessagesSent
			fab.windowEvents += f.WindowEvents
			fab.remote += o.st.remote
			fab.advance += float64(f.AdvanceSum)
			fab.lookahead += float64(f.Rounds) * float64(f.Lookahead)
		}
		if f := o.st.fig18; f != nil {
			f18.ops++
			f18.reuses += float64(f.reuses)
			f18.cells += float64(f.cells)
			f18.lookups += float64(f.lookups)
			f18.stores += float64(f.stores)
			f18.busy += f.busy
			f18.wall += o.raw // sweep.Busy is unscaled too
		}
	}
	evOps := 0
	for _, o := range ph.ops {
		if o.st.events > 0 {
			evOps++
		}
	}
	add("sim.events", float64(events)/math.Max(1, float64(evOps)), fmt.Sprintf("%d ops", evOps), events > 0)
	add("sim.ns_per_event", float64(evTime.Nanoseconds())/math.Max(1, float64(events)),
		fmt.Sprintf("%d events in %.3g s of traced ops", events, evTime.Seconds()), events > 0)
	share("sim")
	add("go.mallocs_per_op", float64(m1.Mallocs-m0.Mallocs)/n, nops, true)
	add("go.alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/n, nops, true)
	add("go.gc_cycles", float64(m1.NumGC-m0.NumGC)/n, fmt.Sprintf("%d cycles over %s", m1.NumGC-m0.NumGC, nops), true)
	share("go")

	for _, arch := range []string{"umanycore", "scaleout", "serverclass"} {
		ds := ph.durations(arch)
		add("machine."+arch+".op_ms_p50", median(ds).Seconds()*1e3, fmt.Sprintf("%d traced ops", len(ds)), len(ds) > 0)
	}
	share("machine")
	share("rq")
	share("sched")
	share("icn")
	add("icn.mean_hops", mean(hops), fmt.Sprintf("mean over %d simulated machines", len(hops)), len(hops) > 0)
	share("stats")

	fops := math.Max(1, float64(fab.ops))
	fbase := fmt.Sprintf("%d coupled fleet ops", fab.ops)
	add("pdes.rounds", float64(fab.rounds)/fops, fbase, fab.rounds > 0)
	add("pdes.events_per_window", float64(fab.windowEvents)/math.Max(1, float64(fab.rounds)),
		fmt.Sprintf("%d events over %d windows", fab.windowEvents, fab.rounds), fab.rounds > 0)
	add("pdes.lookahead_util", fab.advance/math.Max(1, fab.lookahead), fmt.Sprintf("%d windows", fab.rounds), fab.rounds > 0)
	share("pdes")
	share("fleet")
	add("pdes.messages", float64(fab.msgs)/fops, fbase, fab.msgs > 0)
	add("fleet.remote_served", float64(fab.remote)/fops, fbase, fab.remote > 0)
	share("svcgraph")

	for _, s := range [][2]string{
		{"svcgraph.synth_ms", "svcgraph.Synthesize"},
		{"svcgraph.write_ms", "svcgraph.WriteTrace"},
		{"svcgraph.parse_ms", "svcgraph.ParseTrace"},
		{"svcgraph.bind_ms", "svcgraph.Trace.Bind"},
	} {
		ds := res.setupTrace.durations(s[1])
		add(s[0], median(ds).Seconds()*1e3, fmt.Sprintf("median of %d calls in %d set-ups", len(ds), setups), len(ds) > 0)
	}
	add("svcgraph.records", float64(records), "records per synthesized trace", records > 0)

	gops := math.Max(1, float64(f18.ops))
	gbase := fmt.Sprintf("%d Fig18 ops", f18.ops)
	fig := tr.durations("experiments.Fig18")
	add("machine.runs", f18.reuses/gops, gbase+"; engine reuses, a lower bound on probes", f18.ops > 0)
	add("experiments.fig18_s", median(fig).Seconds(), fmt.Sprintf("median of %d calls", len(fig)), len(fig) > 0)
	add("sweep.cells", f18.cells/gops, gbase, f18.cells > 0)
	add("sweep.busy_s", f18.busy.Seconds()/gops, gbase, f18.busy > 0)
	add("sweep.efficiency", f18.busy.Seconds()/math.Max(1e-9, f18.wall.Seconds()*fig18Workers),
		fmt.Sprintf("busy / (wall x %d workers) over %s", fig18Workers, gbase), f18.busy > 0)
	cells := tr.durations("sweep.cell")
	add("sweep.cell_ms_max", percentile(cells, 1).Seconds()*1e3, fmt.Sprintf("max of %d cells", len(cells)), len(cells) > 0)
	add("sweepcache.lookups", f18.lookups/gops, gbase, f18.lookups > 0)
	add("sweepcache.stores", f18.stores/gops, gbase, f18.stores > 0)
	lk, stv := tr.durations("sweepcache.Lookup"), tr.durations("sweepcache.Store")
	add("sweepcache.lookup_us_p50", median(lk).Seconds()*1e6, fmt.Sprintf("%d lookups", len(lk)), len(lk) > 0)
	add("sweepcache.store_us_p50", median(stv).Seconds()*1e6, fmt.Sprintf("%d stores", len(stv)), len(stv) > 0)

	add("host.ref_ms", res.refMs, "median of 7 runs of the compute reference kernel", true)
	add("host.memref_ms", res.memRefMs, "median of 7 runs of the 4 MB random-access reference kernel", true)
	add("host.simref_ms", median(res.refs).Seconds()*1e3, fmt.Sprintf("median of %d runs of the reference the times are scaled by; nominal %v", len(res.refs), refNominal), true)
	add("host.raw_wall_s", median(res.untraced.rawPasses).Seconds(), fmt.Sprintf("unscaled median of %d untraced passes", len(res.untraced.rawPasses)), true)
	overhead := median(res.traced.passes).Seconds()/median(res.untraced.passes).Seconds() - 1
	add("trace.overhead_frac", overhead, fmt.Sprintf("median pass: %d traced vs %d untraced passes",
		len(res.traced.passes), len(res.untraced.passes)), true)
	return out
}

// writeTrace writes the traced run's host record, spans and metrics.
func writeTrace(cfg config, res *result, tr *tracer) error {
	type m struct {
		Value  float64 `json:"value"`
		Unit   string  `json:"unit"`
		Base   string  `json:"base,omitempty"`
		Absent bool    `json:"absent,omitempty"`
	}
	metrics := map[string]m{}
	for _, x := range res.metrics {
		metrics[x.name] = m{x.value, x.unit, x.base, x.absent}
	}
	doc := struct {
		Workload   string       `json:"workload"`
		Seed       int64        `json:"seed"`
		Host       hostInfo     `json:"host"`
		SetupSpans []span       `json:"setup_spans"`
		Spans      []span       `json:"spans"`
		Metrics    map[string]m `json:"metrics"`
	}{cfg.workload, cfg.seed, res.host, res.setupTrace.spans, tr.spans, metrics}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return errors.New("write trace: " + err.Error())
	}
	return nil
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

// percentile returns the nearest-rank q-quantile of ds (0 for none).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
