package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the metric lists must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nwant\n%v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nwant\n%v", b.PerLayer, perLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads in BENCHMARK.json = %v, want %v", names, workloads)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	type job struct {
		Class, Name, Src, Pers string
		Due                    time.Duration
	}
	sched := func(seed int64) []job {
		m := newMix(seed)
		var out []job
		jobs := m.list(2 * blockLen())
		jobs = append(jobs, m.schedule(60, lightRate)...)
		for _, j := range append(jobs, m.schedule(60, heavyRate)...) {
			out = append(out, job{j.class, j.name, j.src, j.pers, j.due})
		}
		return out
	}
	if a, b := sched(7), sched(7); !reflect.DeepEqual(a, b) {
		t.Error("serve-mix jobs or schedule differ between two runs with seed 7")
	}
	if a, b := sched(7), sched(8); reflect.DeepEqual(a, b) {
		t.Error("serve-mix jobs and schedule are the same for seeds 7 and 8")
	}
}

func TestScheduleKeepsMixAndRate(t *testing.T) {
	m := newMix(3)
	jobs := m.schedule(400, 20)
	counts := map[string]int{}
	for i, j := range jobs {
		counts[j.class]++
		if i > 0 && j.due < jobs[i-1].due {
			t.Fatalf("job %d due before job %d", i, i-1)
		}
	}
	for k, c := range classBlock {
		if want := c * 400 / blockLen(); counts[serveClasses[k]] != want {
			t.Errorf("%s jobs = %d, want %d", serveClasses[k], counts[serveClasses[k]], want)
		}
	}
	if last := jobs[len(jobs)-1].due; last > 20*time.Second {
		t.Errorf("last job due at %v, after the 20s the rate allows", last)
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	v, pct := tail(xs)
	if v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90 (ten samples beyond)", v, pct)
	}
	if v, _ := tail(xs[:5]); v != 5 {
		t.Errorf("tail of five samples = %v, want the maximum", v)
	}
}

func TestSelfTimes(t *testing.T) {
	rec := newRecorder()
	at := func(s float64) time.Time { return rec.t0.Add(time.Duration(s * float64(time.Second))) }
	root := rec.add("job", -1, 1, at(0), at(10))
	rec.add("a", root, 1, at(1), at(4))
	rec.add("b", root, 1, at(3), at(6)) // overlaps a by one second
	rec.add("c", root, 1, at(8), at(12))
	self, _ := rec.selfTimes()
	// Children cover [1,6] and [8,10] of the root's [0,10].
	if got := self[root]; math.Abs(got-3) > 1e-9 {
		t.Errorf("root self time = %v, want 3", got)
	}
}

func TestCheckerCountsMismatches(t *testing.T) {
	c := &checker{}
	want := outcome{Output: "x 1\n", Plan: "est 1\n", KRPF: "ab"}
	c.check("same", want, nil, want)
	c.check("output", outcome{Output: "x 2\n", Plan: want.Plan, KRPF: want.KRPF}, nil, want)
	c.check("krpf", outcome{Output: want.Output, Plan: want.Plan, KRPF: "cd"}, nil, want)
	if c.attempted != 3 || c.failed != 2 {
		t.Errorf("attempted %d failed %d, want 3 and 2", c.attempted, c.failed)
	}
}

// TestCalibration checks that the calibration kernel allocates nothing,
// that a time is scaled by the samples around it, and that a whole-run
// figure is scaled by the run's median sample.
func TestCalibration(t *testing.T) {
	if n := testing.AllocsPerRun(3, func() { calibKernel(calibSteps) }); n != 0 {
		t.Errorf("calibration kernel allocates %v times a run", n)
	}
	c := &calibrator{ms: []float64{calibRefMS, 3 * calibRefMS, calibRefMS / 2}}
	for _, tc := range []struct {
		lo, hi int
		want   float64
	}{
		{0, 2, 0.5},     // bracket(0): samples 0 and 1
		{1, 3, 2 / 3.5}, // bracket(1): samples 1 and 2
		{2, 4, 2},       // bracket(2): sample 2; none after it
		{0, 3, 2 / 3.0}, // every sample
		{3, 5, 1},       // no sample
	} {
		if got := c.scale(tc.lo, tc.hi); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("scale(%d, %d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
	if got := (*calibrator)(nil).scale(0, 2); got != 1 {
		t.Errorf("nil calibrator scale = %v, want 1", got)
	}
	// runScale goes by the median sample, which an outlier does not move.
	c = &calibrator{ms: []float64{2 * calibRefMS, 50 * calibRefMS, calibRefMS}}
	if got := c.runScale(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("runScale = %v, want 0.5", got)
	}
}

// TestSmoke runs every workload untraced and traced on tiny inputs and
// checks that each prints exactly its metric list with every job correct.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(options{workload: w, seed: 1, seconds: 1, trace: trace, smoke: true, dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			var got, want []string
			for name, v := range res.Metrics {
				got = append(got, name+" "+v.Unit)
			}
			for _, s := range specs {
				want = append(want, s.Name+" "+s.Unit)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v metrics:\n%v\nwant\n%v", w, trace, got, want)
			}
			if !trace {
				for _, s := range endToEnd {
					if res.Metrics[s.Name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w, s.Name, res.Metrics[s.Name].Value)
					}
				}
			}
		}
	}
}

// TestSuiteReference recomputes the committed suite reference with the tree
// engine.
func TestSuiteReference(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles the whole suite with the tree engine")
	}
	path := t.TempDir() + "/suite.json"
	if err := writeSuiteRef(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(suiteRefJSON) {
		t.Error("ref/suite.json is stale; regenerate it with: go run . -write-suite-ref ref/suite.json")
	}
}
