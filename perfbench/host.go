package main

import (
	"bufio"
	"container/heap"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo identifies the host a run was measured on; a timing is only
// comparable with timings taken on the same host.
type hostInfo struct {
	NProc int    `json:"nproc"`
	CPU   string `json:"cpu"`
	Go    string `json:"go"`
	Git   string `json:"git"`
}

func readHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), CPU: "unknown", Go: runtime.Version(), Git: os.Getenv("PERFBENCH_GIT")}
	if h.Git == "" {
		h.Git = "none"
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// refKernel is a fixed CPU-bound computation that lives in the benchmark,
// not the program: its time moves only with the host. A slower op time
// with a steady reference time is the program; both slower is host drift.
func refKernel() time.Duration {
	t0 := time.Now()
	const n = 1 << 14
	var table [n]uint32
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 1<<22; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&(n-1)] += uint32(x >> 40)
	}
	refSink = table[int(x&(n-1))]
	return time.Since(t0)
}

var refSink uint32

// memRefKernel times random read-modify-writes over a 4 MB table, about
// the last-level cache share the simulator's own state lives in. On a
// shared host, neighbours thrashing that cache slow the simulator far more
// than they slow refKernel; this kernel sees that drift.
func memRefKernel(table []uint32) time.Duration {
	t0 := time.Now()
	x := uint32(12345)
	for i := 0; i < 1<<20; i++ {
		x = x*1664525 + 1013904223
		table[int(x)&(len(table)-1)] += x
	}
	return time.Since(t0)
}

// hostRefMs returns the medians of several runs of each reference kernel,
// in ms.
func hostRefMs() (cpu, mem float64) {
	const n = 7
	cs, ms := make([]time.Duration, n), make([]time.Duration, n)
	table := make([]uint32, 1<<20) // dropped before set-up, so peak RSS stays the program's
	for i := range cs {
		cs[i], ms[i] = refKernel(), memRefKernel(table)
	}
	return median(cs).Seconds() * 1e3, median(ms).Seconds() * 1e3
}

// refNominal is the time refDES takes on the reference-speed host that
// the end-to-end times are scaled to.
const refNominal = 200 * time.Millisecond

// refEnv, set in a child process's environment, makes the binary run
// refDES once and print its time in nanoseconds instead of benchmarking.
const refEnv = "PERFBENCH_REF"

// refEvent is a pending event of refDES's queue.
type refEvent struct {
	at   uint64
	data [6]uint64
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// refDES is the reference the end-to-end times are normalized by: a
// miniature discrete-event loop in the benchmark's own code, built the way
// the simulator's kernel is (a container/heap of pointers to events, a new
// allocation per scheduled event, garbage for the collector). On a shared
// host the simulator's speed drifts up to twofold within minutes, as
// neighbours contend for the caches and memory it works in; the compute
// kernel refKernel barely moves, while this loop, doing the same kind of
// work, slows largely in step with the simulator (somewhat less in large
// swings). A change in the program's speed moves the ops and not this loop.
func refDES() time.Duration {
	const pending, fired = 200000, 1 << 19
	q := make(refQueue, 0, pending)
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for range pending {
		q = append(q, &refEvent{at: next() >> 20})
	}
	t0 := time.Now()
	heap.Init(&q)
	for range fired {
		e := heap.Pop(&q).(*refEvent)
		n := &refEvent{at: e.at + next()>>40}
		n.data[0] = e.data[0] + 1
		heap.Push(&q, n)
	}
	d := time.Since(t0)
	refSink = uint32(q[0].data[0])
	return d
}

// runRef times refDES in a child process of this binary, so that its
// memory and its garbage collection are its own: neither the program's
// heap, its collector's pacing nor the peak RSS of the benchmark process
// depend on it. The child dies with the benchmark.
func runRef() (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), refEnv+"=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
	if err != nil || ns <= 0 {
		return 0, fmt.Errorf("reference kernel printed %q", out)
	}
	return time.Duration(ns), nil
}

// scaleBy returns d times f.
func scaleBy(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}
