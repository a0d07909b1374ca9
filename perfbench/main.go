// Command perfbench is the repository's benchmark. It takes seeded
// workloads through the public pipeline — kremlin.CompileWith,
// Program.Profile, Program.Plan — and through the profiling daemon's HTTP
// handler, checks every output and plan against the tree-walking reference
// engine, and prints its metrics as one JSON object on the last line of
// standard output.
//
//	perfbench --workload suite-hcpa --seed 1 --seconds 40 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant instead and prints the per-layer metrics. See README.md for the
// workloads and for which layer metric should move which end-to-end metric.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"kremlin/internal/bench"
	"kremlin/internal/planner"
)

// workloads lists the benchmark's workloads, in BENCHMARK.json order.
var workloads = []string{"suite-hcpa", "serve-mix"}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool   // tiny inputs; set by the benchmark's own tests
	dir      string // scratch space inside the checkout: spans, caches
}

// result is the object printed on the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// A run sets up at least setupReps times, and until its set-ups add up to
// setupSampleTime; setup_s is their median. The suite sets up in tens of
// milliseconds, too little to repeat within a bound from a few samples.
const (
	setupReps       = 3
	setupSampleTime = 3 * time.Second
)

//go:embed ref/suite.json
var suiteRefJSON []byte

func main() {
	var o options
	var traceFlag int
	var writeRef string
	flag.StringVar(&o.workload, "workload", "", "workload: suite-hcpa or serve-mix")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.IntVar(&o.seconds, "seconds", 40, "seconds to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1: run traced and print the per-layer metrics")
	flag.StringVar(&o.dir, "work-dir", ".bench_build", "directory for the daemon's cache and a traced run's spans")
	flag.StringVar(&writeRef, "write-suite-ref", "", "recompute the suite reference with the tree engine into this file and exit")
	flag.Parse()
	o.trace = traceFlag == 1

	if writeRef != "" {
		if err := writeSuiteRef(writeRef); err != nil {
			logf("perfbench: %v", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(o)
	if err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run.
func run(o options) (*result, error) {
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	r := report{}
	c := &checker{}
	cal := &calibrator{}
	var err error
	switch o.workload {
	case "suite-hcpa":
		err = runSuiteWorkload(o, r, c, cal)
	case "serve-mix":
		err = runServeWorkload(o, r, c, cal)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	if c.attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	if _, ok := r["peak_rss_mb"]; !ok {
		r["peak_rss_mb"] = peakRSSMB()
	}
	r["fail_frac"] = float64(c.failed) / float64(c.attempted)
	r["calib.ms"] = median(cal.ms)
	specs := perLayer
	if !o.trace {
		specs = endToEnd
		cal.printRaw(r)
	}
	fmt.Printf("workload %s seed %d: %d attempted, %d failed, GOMAXPROCS %d\n",
		o.workload, o.seed, c.attempted, c.failed, runtime.GOMAXPROCS(0))
	return &result{
		Correct:   c.failed == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   r.finish(specs),
	}, nil
}

// timeSetup runs setup at least setupReps times and until the runs add up
// to setupSampleTime, sampling cal before each and after the last, stores
// the median time as setup_s, and returns the last setup's value. The
// set-ups are scaled together, by all of their samples: a serve-mix set-up
// keeps both cores busy, as a drain does.
func timeSetup[T any](r report, cal *calibrator, setup func() (T, error)) (T, error) {
	var times []float64
	var total time.Duration
	var v T
	first := cal.sample()
	for len(times) < setupReps || total < setupSampleTime {
		t0 := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		total += d
		times = append(times, seconds(d))
		cal.sample()
	}
	for _, sc := range cal.scalings() {
		r[sc.prefix+"setup_s"] = median(times) * sc.scale(first, len(cal.ms))
	}
	logf("setup: median of %d set-ups", len(times))
	return v, nil
}

// runSuiteWorkload measures suite-hcpa, the paper's programs run through
// the public pipeline in-process, in serial passes (one client) for the
// whole of --seconds. A traced run then adds passes with two clients for
// the job latency and capacity figures, and alternating untraced and
// traced serial passes for the layer figures, each for half the time.
func runSuiteWorkload(o options, r report, c *checker, cal *calibrator) error {
	progs, err := timeSetup(r, cal, func() ([]program, error) {
		ps := suitePrograms(o.smoke)
		for _, p := range ps {
			// Compiling every program once lets the heap grow to its
			// working size before anything is timed.
			if j := runCompile(p); j != nil {
				return nil, j
			}
		}
		return ps, nil
	})
	if err != nil {
		return err
	}
	refs, err := suiteRefs()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.seed))
	total := time.Duration(o.seconds) * time.Second
	sr, err := runSerial(progs, tailPasses(len(progs)), time.Now().Add(total), rng, cal, nil)
	if err != nil {
		return err
	}
	serial := sr.passes
	serialMetrics(r, sr)
	var walls []float64
	for _, p := range serial {
		walls = append(walls, seconds(p.wall))
	}
	fmt.Printf("serial passes %d, wall s: %.3v\n", len(serial), walls)
	// Which programs two clients happen to compile at once would decide a
	// two-client peak, so the peak is read before those passes.
	r["peak_rss_mb"] = peakRSSMB()
	checkPasses(c, serial, refs)
	if !o.trace {
		return nil
	}
	conc := runPasses(progs, 2, tailPasses(len(progs)), time.Now().Add(total/2), rng)
	checkPasses(c, conc, refs)
	pipelineJobMetrics(r, serial, conc)
	rec := newRecorder()
	runTracedPipeline(r, rec, progs, refs, 2, time.Now().Add(total/2), rng, c)
	return writeSpans(o, rec)
}

// writeSpans stores a traced run's spans under the spans directory.
func writeSpans(o options, rec *recorder) error {
	path := filepath.Join(o.dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := rec.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	logf("spans written to %s", path)
	return nil
}

// suiteRefs returns the committed tree-engine reference of the paper suite.
func suiteRefs() (map[string]outcome, error) {
	var refs map[string]outcome
	if err := json.Unmarshal(suiteRefJSON, &refs); err != nil {
		return nil, fmt.Errorf("suite reference: %w", err)
	}
	return refs, nil
}

// treeRefs computes each program's reference with the tree engine.
func treeRefs(ps []program) (map[string]outcome, error) {
	refs := map[string]outcome{}
	for _, p := range ps {
		ref, err := treeReference(p.name, p.src, planner.OpenMP())
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", p.name, err)
		}
		refs[p.name] = ref
	}
	return refs, nil
}

// writeSuiteRef recomputes the suite reference with the tree engine.
func writeSuiteRef(path string) error {
	refs := map[string]outcome{}
	for _, b := range bench.All() {
		ref, err := treeReference(b.Name, b.Source, planner.OpenMP())
		if err != nil {
			return fmt.Errorf("reference for %s: %w", b.Name, err)
		}
		refs[b.Name] = ref
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
