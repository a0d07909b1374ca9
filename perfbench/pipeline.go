package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"kremlin"
	"kremlin/internal/bench"
	"kremlin/internal/planner"
	"kremlin/internal/profile"
)

// program is one input of a pipeline pass.
type program struct {
	name string
	src  string
}

// suiteNames are the paper's eleven programs, in Figure-6 order.
var suiteNames = func() []string {
	var names []string
	for _, b := range bench.All() {
		names = append(names, b.Name)
	}
	return names
}()

// suitePrograms returns the paper suite (a fixed subset in smoke mode).
func suitePrograms(smoke bool) []program {
	var ps []program
	for _, b := range bench.All() {
		if smoke && b.Name != "ep" && b.Name != "lu" && b.Name != "cg" {
			continue
		}
		ps = append(ps, program{name: b.Name, src: b.Source})
	}
	return ps
}

// shuffled returns ps in a seeded order; each pass of a run uses its own
// order so no single layout of the heap is measured.
func shuffled(ps []program, rng *rand.Rand) []program {
	out := append([]program(nil), ps...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// outcome is what one program produced: the fields the correctness check
// compares against the tree-engine reference.
type outcome struct {
	Output string `json:"output"`
	Plan   string `json:"plan"`
	KRPF   string `json:"krpf_sha256"`
}

// planLine is one recommendation of a plan, as the check compares it.
type planLine struct {
	Label, Hint, Safety         string
	SelfP, Coverage, EstSpeedup float64
}

// canonicalPlan renders a plan for comparison, with every float at full
// precision.
func canonicalPlan(est float64, recs []planLine) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "est %.17g\n", est)
	for _, r := range recs {
		fmt.Fprintf(&sb, "%s %s %s %.17g %.17g %.17g\n", r.Label, r.Hint, r.Safety, r.SelfP, r.Coverage, r.EstSpeedup)
	}
	return sb.String()
}

func planOf(p *planner.Plan) string {
	recs := make([]planLine, len(p.Recs))
	for i, r := range p.Recs {
		recs[i] = planLine{r.Label(), r.Hint(), r.Safety, r.Stats.SelfP, r.Stats.Coverage, r.EstSpeedup}
	}
	return canonicalPlan(p.EstProgramSpeedup, recs)
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func encode(p *profile.Profile) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// jobResult is one program taken through the public pipeline.
type jobResult struct {
	name    string
	compile time.Duration // CompileWith + Bytecode
	profile time.Duration // Program.Profile
	total   time.Duration // compile → profile → encode → plan
	cpu     time.Duration // process CPU time over the job; its own in a serial pass
	cal     int           // calibration sample taken just before the job; -1 if none
	out     outcome
	err     error
}

// runJob takes p through compile → HCPA profile → KRPF encode → OpenMP plan
// with the public API, the way a user of the library runs it.
func runJob(p program) jobResult {
	r := jobResult{name: p.name}
	start := time.Now()
	prog, err := kremlin.CompileWith(p.name+".kr", p.src, kremlin.CompileOptions{})
	if err != nil {
		r.err = err
		return r
	}
	prog.Bytecode()
	compiled := time.Now()
	var out bytes.Buffer
	prof, _, err := prog.Profile(&kremlin.RunConfig{Out: &out})
	profiled := time.Now()
	if err != nil {
		r.err = err
		return r
	}
	krpf, err := encode(prof)
	if err != nil {
		r.err = err
		return r
	}
	plan := prog.Plan(prof, planner.OpenMP())
	end := time.Now()
	r.compile, r.profile, r.total = compiled.Sub(start), profiled.Sub(compiled), end.Sub(start)
	r.out = outcome{Output: out.String(), Plan: planOf(plan), KRPF: sha(krpf)}
	return r
}

// treeReference computes the expected outcome of p with the tree-walking
// reference engine, never with the bytecode VM under test.
func treeReference(name, src string, pers planner.Personality) (outcome, error) {
	prog, err := kremlin.CompileWith(name+".kr", src, kremlin.CompileOptions{})
	if err != nil {
		return outcome{}, err
	}
	var out bytes.Buffer
	prof, _, err := prog.Profile(&kremlin.RunConfig{Out: &out, Engine: kremlin.EngineTree})
	if err != nil {
		return outcome{}, err
	}
	krpf, err := encode(prof)
	if err != nil {
		return outcome{}, err
	}
	return outcome{Output: out.String(), Plan: planOf(prog.Plan(prof, pers)), KRPF: sha(krpf)}, nil
}

// pass is one pass over a workload's programs.
type pass struct {
	wall time.Duration
	jobs []jobResult
}

// runPass runs progs with the given number of client goroutines, each
// taking the next program as soon as it finishes the previous one. A
// serial pass given a calibrator times its kernel before every job.
func runPass(progs []program, clients int, cal *calibrator) pass {
	jobs := make([]jobResult, len(progs))
	t0 := time.Now()
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= len(progs) {
					return
				}
				idx := cal.sample()
				c0 := cpuTime()
				jobs[k] = runJob(progs[k])
				jobs[k].cpu = cpuTime() - c0
				jobs[k].cal = idx
			}
		}()
	}
	wg.Wait()
	return pass{wall: time.Since(t0), jobs: jobs}
}

// runPasses repeats passes until the deadline, and at least minPasses
// times.
func runPasses(progs []program, clients, minPasses int, deadline time.Time, rng *rand.Rand) []pass {
	var ps []pass
	for len(ps) < minPasses || time.Now().Before(deadline) {
		ps = append(ps, runPass(shuffled(progs, rng), clients, nil))
	}
	return ps
}

// checker counts jobs and compares each outcome with its reference. All
// checks run on one goroutine, after the timed part.
type checker struct {
	attempted int
	failed    int
}

func (c *checker) check(what string, got outcome, err error, want outcome) {
	c.attempted++
	switch {
	case err != nil:
		logf("FAIL %s: %v", what, err)
	case got.Output != want.Output:
		logf("FAIL %s: output %q, want %q", what, clip(got.Output), clip(want.Output))
	case got.Plan != want.Plan:
		logf("FAIL %s: plan\n%s\nwant\n%s", what, got.Plan, want.Plan)
	case got.KRPF != want.KRPF:
		logf("FAIL %s: KRPF sha256 %s, want %s", what, got.KRPF, want.KRPF)
	default:
		return
	}
	c.failed++
}

// fail counts an attempted operation that failed outright.
func (c *checker) fail(format string, args ...any) {
	c.attempted++
	c.failed++
	logf("FAIL "+format, args...)
}

// ok counts an attempted operation that succeeded.
func (c *checker) ok() { c.attempted++ }

func clip(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}

// checkPasses compares every job of every pass with refs.
func checkPasses(c *checker, ps []pass, refs map[string]outcome) {
	for _, p := range ps {
		for _, j := range p.jobs {
			c.check(j.name, j.out, j.err, refs[j.name])
		}
	}
}

// serialMetrics derives the metrics of serial passes, raw and in
// reference seconds. A pass-level figure is the sum over programs of each
// program's median over passes, so a transient stall in one pass moves it
// less than a median of pass totals would.
//
// compile_s also takes the compile-only samples.
func serialMetrics(r report, sr *serialRun) {
	for _, sc := range sr.cal.scalings() {
		type samples struct{ total, cpu, compile, profile []float64 }
		perProg := map[string]*samples{}
		for _, p := range sr.passes {
			for _, j := range p.jobs {
				s := perProg[j.name]
				if s == nil {
					s = &samples{}
					perProg[j.name] = s
				}
				f := sc.scale(bracket(j.cal))
				s.total = append(s.total, seconds(j.total)*f)
				s.cpu = append(s.cpu, seconds(j.cpu)*f)
				s.compile = append(s.compile, seconds(j.compile)*f)
				s.profile = append(s.profile, seconds(j.profile)*f)
			}
		}
		var progMs []float64
		var wall, cpu, compile, profile float64
		for name, s := range perProg {
			for _, x := range sr.extraCompile[name] {
				s.compile = append(s.compile, x.s*sc.scale(bracket(x.cal)))
			}
			progMs = append(progMs, 1000*median(s.total))
			wall += median(s.total)
			cpu += median(s.cpu)
			compile += median(s.compile)
			profile += median(s.profile)
		}
		r[sc.prefix+"wall_s"], r[sc.prefix+"cpu_s"] = wall, cpu
		r[sc.prefix+"compile_s"], r[sc.prefix+"profile_s"] = compile, profile
		r[sc.prefix+"geomean_program_ms"] = geomean(progMs)
	}
}

// pipelineJobMetrics derives the job latency and capacity figures of a
// pipeline workload from its serial (light) and two-client (heavy) passes.
//
// The tails are taken over the first tailPasses passes of each phase: the
// jobs are a fixed program mix, so which program a tail lands on depends
// on the sample count, and a fixed count keeps it on the same one in every
// run.
func pipelineJobMetrics(r report, serial, conc []pass) {
	var rates []float64
	for _, p := range conc {
		rates = append(rates, float64(len(p.jobs))/seconds(p.wall))
	}
	lightTail, lightN, lightPct := passTail(serial)
	heavyTail, heavyN, heavyPct := passTail(conc)
	r["job_p50_ms.light"] = median(jobTimes(serial))
	r["job_tail_ms.light"] = lightTail
	r["job_p50_ms.heavy"] = median(jobTimes(conc))
	r["job_tail_ms.heavy"] = heavyTail
	r["max_jobs_per_s"] = median(rates)
	fmt.Printf("two-client passes %d; job_tail_ms.light is p%.1f of %d jobs, job_tail_ms.heavy is p%.1f of %d jobs\n",
		len(conc), lightPct, lightN, heavyPct, heavyN)
}

// tailJobs is the least number of jobs a pipeline tail is taken over.
const tailJobs = 30

// tailPasses is how many passes of n programs hold tailJobs jobs.
func tailPasses(n int) int { return (tailJobs + n - 1) / n }

// passTail returns the tail of the job times of the first tailPasses
// passes, the sample count and the percentile.
func passTail(ps []pass) (value float64, n int, pct float64) {
	xs := jobTimes(ps[:min(len(ps), tailPasses(len(ps[0].jobs)))])
	value, pct = tail(xs)
	return value, len(xs), pct
}

// jobTimes returns the wall time of every job of ps, in ms.
func jobTimes(ps []pass) []float64 {
	var xs []float64
	for _, p := range ps {
		for _, j := range p.jobs {
			xs = append(xs, millis(j.total))
		}
	}
	return xs
}

// compileSampleTime is the least compile time compile_s is taken over. The
// suite compiles in tens of milliseconds a pass, too little to repeat
// within a bound, so compile-only rounds run between the serial passes
// until the samples add up to this.
const compileSampleTime = time.Second

// timed is one raw time, in seconds, and the calibration sample taken just
// before it.
type timed struct {
	s   float64
	cal int
}

// serialRun is a run's serial passes and the compile-only samples taken
// between them.
type serialRun struct {
	passes       []pass
	extraCompile map[string][]timed // compile-only samples per program
	compileTotal time.Duration      // compile time sampled, passes included
	cal          *calibrator
}

// runSerial runs serial passes over progs until the deadline, and at least
// minPasses times, calling between (if not nil) after each pass, and
// samples cal before every job and every compile round. Between
// passes it also compiles every program in rounds, paced so that the
// compile samples reach compileSampleTime spread over the whole run rather
// than bunched at its end: a slow stretch of the machine then weighs on
// every figure alike.
func runSerial(progs []program, minPasses int, deadline time.Time, rng *rand.Rand, cal *calibrator, between func()) (*serialRun, error) {
	sr := &serialRun{extraCompile: map[string][]timed{}, cal: cal}
	start := time.Now()
	span := deadline.Sub(start)
	for len(sr.passes) < minPasses || time.Now().Before(deadline) {
		p := runPass(shuffled(progs, rng), 1, cal)
		sr.passes = append(sr.passes, p)
		for _, j := range p.jobs {
			sr.compileTotal += j.compile
		}
		if between != nil {
			between()
		}
		share := min(1, float64(time.Since(start))/float64(span))
		if err := sr.compileUpTo(progs, time.Duration(share*float64(compileSampleTime))); err != nil {
			return nil, err
		}
	}
	return sr, sr.compileUpTo(progs, compileSampleTime)
}

// compileUpTo compiles every program again, round after round, until the
// compile time sampled reaches want.
func (sr *serialRun) compileUpTo(progs []program, want time.Duration) error {
	for sr.compileTotal < want {
		idx := sr.cal.sample()
		for _, p := range progs {
			t0 := time.Now()
			if err := runCompile(p); err != nil {
				return err
			}
			d := time.Since(t0)
			sr.compileTotal += d
			sr.extraCompile[p.name] = append(sr.extraCompile[p.name], timed{seconds(d), idx})
		}
	}
	return nil
}

// runCompile compiles p once through the public API and lowers it to
// bytecode.
func runCompile(p program) error {
	prog, err := kremlin.CompileWith(p.name+".kr", p.src, kremlin.CompileOptions{})
	if err != nil {
		return fmt.Errorf("compile %s: %w", p.name, err)
	}
	prog.Bytecode()
	return nil
}
