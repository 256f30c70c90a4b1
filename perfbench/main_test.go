package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the reference kernel's child
// process, as the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(refEnv) == "1" {
		fmt.Println(refDES().Nanoseconds())
		return
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric name and unit against the report
// format, and that BENCHMARK.json declares exactly the workloads and
// metrics this program reports.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([][2]string(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d[0]) || !unitRE.MatchString(d[1]) || seen[d[0]] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", d[0], d[1])
		}
		seen[d[0]] = true
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	check := func(list string, got []struct{ Name, Unit string }, want [][2]string) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json %s has %d metrics, program reports %d", list, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i][0] || got[i].Unit != want[i][1] {
				t.Errorf("BENCHMARK.json %s[%d] = %s (%s), program reports %s (%s)", list, i, got[i].Name, got[i].Unit, want[i][0], want[i][1])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestRecordedDigests checks that every workload has digests recorded for
// the default and the held-out seed.
func TestRecordedDigests(t *testing.T) {
	rec, err := recordedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []int64{1, 7} {
			if ds := rec[digestKey(w.name, seed)]; len(ds) == 0 {
				t.Errorf("no digests recorded for %s", digestKey(w.name, seed))
			}
		}
	}
}

// TestCorruptDigestFailsEveryOp: when the expected digests are wrong,
// every op fails its output check, so failed_frac is 1.
func TestCorruptDigestFailsEveryOp(t *testing.T) {
	want := make([]string, 6)
	for i := range want {
		want[i] = "corrupt"
	}
	cfg := config{workload: "machine-mix", seed: 1, seconds: 0.01, tiny: true, out: t.TempDir(), want: want}
	res, err := bench(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted == 0 || res.failed != res.attempted {
		t.Fatalf("%d of %d ops failed, want all", res.failed, res.attempted)
	}
}

// TestTinyRuns runs every workload at tiny size, untraced and traced: no op
// may fail, the traced phase must reproduce the untraced digests, and each
// mode must report every metric it declares.
func TestTinyRuns(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 3, seconds: 0.01, trace: trace, tiny: true, out: t.TempDir()}
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.name, "-seed", "3", "-seconds", "0.01", "-tiny", "-out", cfg.out, "-trace", "0"}
			declared := endToEnd
			if trace {
				args[len(args)-1] = "1"
				declared = perLayer
			}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%v: exit %d: %s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var out struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metricValue
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", w.name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d ops failed: %s", w.name, trace, out.Correct, out.Failed, out.Attempted, stderr.String())
			}
			if len(out.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(out.Metrics), len(declared))
			}
			for _, d := range declared {
				if m, ok := out.Metrics[d[0]]; !ok || m.Unit != d[1] {
					t.Errorf("%s trace=%v: metric %s missing or not in %s", w.name, trace, d[0], d[1])
				}
			}
		}
	}
}

type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestLayerShares profiles a loop that spends its time in container/heap
// and checks that the decoder attributes most of it to the sim layer.
func TestLayerShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	h := &intHeap{}
	x := 1
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x = x*1103515245 + 12345
			heap.Push(h, x&0xffff)
		}
		for h.Len() > 0 {
			heap.Pop(h)
		}
	}
	pprof.StopCPUProfile()
	shares, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range shares {
		total += s
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v: %v", total, shares)
	}
	if !raceEnabled && shares["sim"] < 0.3 {
		t.Errorf("container/heap loop: sim share %v, want most of %v", shares["sim"], shares)
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"umanycore/internal/sim.(*Engine).Step":                "umanycore/internal/sim",
		"umanycore/internal/machine.(*Machine).dispatch.func1": "umanycore/internal/machine",
		"container/heap.down":                                  "container/heap",
		"runtime.mallocgc":                                     "runtime",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}
