package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit. The lists below are
// the benchmark's contract with BENCHMARK.json (a test keeps them equal).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are printed by an untraced run (--trace 0) of every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"wall_s", "s", "lower"},
	{"profile_s", "s", "lower"},
	{"compile_s", "s", "lower"},
	{"geomean_program_ms", "ms", "lower"},
}

// jobMetrics are the job latency and capacity figures. Every run measures
// them, but only a traced run prints them: on a 2-vCPU box whose speed
// drifts, the open-loop ones spread from run to run by more than any bound
// an end-to-end metric may have (see README.md).
var jobMetrics = []metricSpec{
	{"job_p50_ms.light", "ms", "lower"},
	{"job_tail_ms.light", "ms", "lower"},
	{"job_p50_ms.heavy", "ms", "lower"},
	{"job_tail_ms.heavy", "ms", "lower"},
	{"max_jobs_per_s", "1/s", "higher"},
}

// frontEndLayers are the compile-pipeline layers the traced run times, in
// pipeline order, by the span names the per-layer metrics use.
var frontEndLayers = []string{
	"parser", "types", "irbuild", "analysis", "absint",
	"regions", "depcheck", "instrument", "bytecode.compile",
}

// serveClasses are the serve-mix traffic classes.
var serveClasses = []string{"fresh", "repeat", "repersona", "edit", "heavy", "lint"}

// perLayer are printed by a traced run (--trace 1) of every workload. A
// layer a workload does not exercise reads 0 there.
var perLayer = func() []metricSpec {
	m := append([]metricSpec(nil), jobMetrics...)
	add := func(name, unit, better string) { m = append(m, metricSpec{name, unit, better}) }
	for _, l := range frontEndLayers {
		add(l+".s", "s", "lower")
		add(l+".alloc_mb", "MB", "lower")
	}
	add("ir.instrs", "count", "lower")
	add("regions.count", "count", "lower")
	for _, mode := range []string{"plain", "gprof", "hcpa"} {
		add("bytecode.run_"+mode+"_s", "s", "lower")
		add("bytecode.run_"+mode+".alloc_mb", "MB", "lower")
	}
	add("kremlib.s", "s", "lower")
	add("kremlib.overhead_x", "x", "lower")
	add("kremlib.over_gprof_x", "x", "lower")
	add("interp.steps", "count", "lower")
	add("interp.work", "count", "lower")
	add("shadow.pages", "count", "lower")
	add("shadow.writes", "count", "lower")
	add("profile.dict_entries", "count", "lower")
	add("profile.compression_x", "x", "higher")
	add("profile.encode_s", "s", "lower")
	add("hcpa.summarize_s", "s", "lower")
	add("planner.make_s", "s", "lower")
	for _, p := range suiteNames {
		add("program."+p+".wall_ms", "ms", "lower")
		add("program."+p+".kremlib.overhead_x", "x", "lower")
	}
	add("gc.cycles", "count", "lower")
	add("gc.pause_s", "s", "lower")
	add("gc.alloc_mb", "MB", "lower")
	for _, c := range serveClasses {
		add("serve.class."+c+".p50_ms", "ms", "lower")
	}
	add("serve.server_elapsed_ms", "ms", "lower")
	add("serve.queue_wait_ms", "ms", "lower")
	add("serve.conn_wait_ms", "ms", "lower")
	add("serve.client_gap_ms", "ms", "lower")
	add("serve.gen_lag_ms", "ms", "lower")
	add("serve.backlog_max", "count", "lower")
	add("serve.jobcache.hit_ratio", "ratio", "higher")
	add("serve.compilecache.hit_ratio", "ratio", "higher")
	add("serve.inccache.hit_ratio", "ratio", "higher")
	add("serve.lint_rejected", "count", "lower")
	add("serve.shed", "count", "lower")
	add("trace.untraced_wall_s", "s", "lower")
	add("trace.traced_wall_s", "s", "lower")
	add("trace.overhead_s", "s", "lower")
	add("trace.unattributed_s", "s", "lower")
	add("trace.spans", "count", "lower")
	add("calib.ms", "ms", "lower")
	add("fail_frac", "ratio", "lower")
	return m
}()

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics by name.
type report map[string]float64

// finish fills in every metric of specs that the run did not set (0: not
// exercised by this workload) and attaches units.
func (r report) finish(specs []metricSpec) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v := r[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return out
}

// --- sample statistics ---

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail returns the highest order statistic that has at least ten samples
// above it, and the percentile it sits at. With fewer than eleven samples
// it falls back to the maximum.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 11
	if i < 0 {
		i = n - 1
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// --- process counters ---

// cpuTime is the CPU time (user + system) the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// allocSample reads the cumulative heap bytes allocated, without stopping
// the world.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// gcSnapshot records the Go runtime's GC counters at one instant.
type gcSnapshot struct {
	cycles uint32
	pause  uint64
	alloc  uint64
}

func readGC() gcSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnapshot{cycles: ms.NumGC, pause: ms.PauseTotalNs, alloc: ms.TotalAlloc}
}

// gcDelta stores the GC activity between two snapshots in r.
func gcDelta(r report, a, b gcSnapshot) {
	r["gc.cycles"] = float64(b.cycles - a.cycles)
	r["gc.pause_s"] = float64(b.pause-a.pause) / 1e9
	r["gc.alloc_mb"] = float64(b.alloc-a.alloc) / (1 << 20)
}

// logf prints a progress or diagnostic line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
