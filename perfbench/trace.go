package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"kremlin/internal/absint"
	"kremlin/internal/analysis"
	"kremlin/internal/bytecode"
	"kremlin/internal/depcheck"
	"kremlin/internal/hcpa"
	"kremlin/internal/instrument"
	"kremlin/internal/interp"
	"kremlin/internal/irbuild"
	"kremlin/internal/parser"
	"kremlin/internal/planner"
	"kremlin/internal/regions"
	"kremlin/internal/source"
	"kremlin/internal/types"
)

// span is one timed interval at a layer boundary. Spans of one job share
// its job ID; Parent is -1 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the recorder started
	End    float64 `json:"end_s"`
	// Alloc is the heap bytes allocated while the span was open (spans
	// opened with begin; it counts every goroutine, so it is the layer's
	// own only on a goroutine that runs alone).
	Alloc      uint64 `json:"alloc_bytes"`
	allocStart uint64
}

// recorder keeps spans in memory until the run ends. Spans are recorded
// from one goroutine.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) since(t time.Time) float64 { return t.Sub(r.t0).Seconds() }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, job int) int {
	a := allocBytes()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Job: job, Name: name, Start: r.since(time.Now()), allocStart: a})
	return len(r.spans) - 1
}

// end closes a span opened with begin.
func (r *recorder) end(id int) {
	now := time.Now()
	a := allocBytes()
	r.spans[id].End = r.since(now)
	r.spans[id].Alloc = a - r.spans[id].allocStart
}

// add records a span whose times were measured elsewhere.
func (r *recorder) add(name string, parent, job int, start, end time.Time) int {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Job: job, Name: name, Start: r.since(start), End: r.since(end)})
	return len(r.spans) - 1
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover, and its allocation minus its
// children's.
func (r *recorder) selfTimes() (self []float64, selfAlloc []float64) {
	kids := make([][]int, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self = make([]float64, len(r.spans))
	selfAlloc = make([]float64, len(r.spans))
	for _, s := range r.spans {
		type iv struct{ a, b float64 }
		var ivs []iv
		alloc := float64(s.Alloc)
		for _, k := range kids[s.ID] {
			c := r.spans[k]
			ivs = append(ivs, iv{max(c.Start, s.Start), min(c.End, s.End)})
			alloc -= float64(c.Alloc)
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered, reach := 0.0, s.Start
		for _, v := range ivs {
			a := max(v.a, reach)
			if v.b > a {
				covered += v.b - a
				reach = v.b
			}
		}
		self[s.ID] = s.End - s.Start - covered
		selfAlloc[s.ID] = max(alloc, 0)
	}
	return self, selfAlloc
}

// write stores every span as JSON Lines in path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedJob is one program taken through the pipeline layer by layer, the
// way kremlin.CompileWith, Program.Profile and Program.Plan call them, with
// a span around every layer's public entry point.
type tracedJob struct {
	name    string
	root    int // the job span (compile → plan)
	out     outcome
	instrs  int
	regions int
	steps   uint64
	work    uint64
	pages   int
	writes  uint64
	dict    int
	raw     uint64
	encoded uint64
	err     error
}

// runTracedJob mirrors the public pipeline for p with spans under a "job"
// root, then runs the plain and gprof baselines under a separate
// "baseline" root so they stay out of the job's wall time.
func runTracedJob(rec *recorder, jobID int, p program) tracedJob {
	tj := tracedJob{name: p.name}
	tj.root = rec.begin("job", -1, jobID)
	var cur int
	open := func(name string) { cur = rec.begin(name, tj.root, jobID) }
	closeSpan := func() { rec.end(cur) }
	fail := func(err error) tracedJob {
		rec.end(tj.root)
		tj.err = err
		return tj
	}

	file := source.NewFile(p.name+".kr", p.src)
	errs := &source.ErrorList{}
	open("parser")
	tree := parser.Parse(file, errs)
	closeSpan()
	if err := errs.Err(); err != nil {
		return fail(err)
	}
	open("types")
	info := types.Check(tree, file, errs)
	closeSpan()
	if err := errs.Err(); err != nil {
		return fail(err)
	}
	open("irbuild")
	mod := irbuild.Build(tree, info, file, errs)
	closeSpan()
	if err := errs.Err(); err != nil {
		return fail(err)
	}
	open("analysis")
	analysis.Run(mod)
	closeSpan()
	open("absint")
	facts := absint.Analyze(mod)
	closeSpan()
	open("regions")
	regs := regions.Analyze(mod, file)
	closeSpan()
	open("depcheck")
	depcheck.Analyze(regs, facts)
	closeSpan()
	open("instrument")
	instr := instrument.Build(regs)
	closeSpan()
	open("bytecode.compile")
	bc := bytecode.Compile(mod, regs, instr, facts)
	closeSpan()

	var out bytes.Buffer
	open("bytecode.run_hcpa")
	res, err := bytecode.Run(bc, interp.Config{Mode: interp.HCPA, Out: &out, Prog: regs, Instr: instr})
	closeSpan()
	if err != nil {
		return fail(err)
	}
	prof := res.Profile
	prof.Safety = make([]uint8, len(regs.Regions))
	for i, r := range regs.Regions {
		prof.Safety[i] = uint8(r.Safety)
	}
	open("profile.encode")
	krpf, err := encode(prof)
	closeSpan()
	if err != nil {
		return fail(err)
	}
	open("hcpa.summarize")
	sum := hcpa.Summarize(prof, regs)
	closeSpan()
	open("planner.make")
	plan := planner.Make(sum, planner.OpenMP())
	closeSpan()
	rec.end(tj.root)

	tj.out = outcome{Output: out.String(), Plan: planOf(plan), KRPF: sha(krpf)}
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			tj.instrs += len(b.Instrs)
		}
	}
	tj.regions = len(regs.Regions)
	tj.steps, tj.work = res.Steps, res.Work
	tj.pages, tj.writes = res.ShadowPages, res.ShadowWrites
	tj.dict = len(prof.Dict.Entries)
	tj.raw, tj.encoded = prof.RawBytes(), uint64(len(krpf))

	base := rec.begin("baseline", -1, jobID)
	for _, m := range []struct {
		name string
		mode interp.Mode
	}{{"bytecode.run_plain", interp.Plain}, {"bytecode.run_gprof", interp.Gprof}} {
		id := rec.begin(m.name, base, jobID)
		_, err := bytecode.Run(bc, interp.Config{Mode: m.mode, Prog: regs, Instr: instr})
		rec.end(id)
		if err != nil {
			rec.end(base)
			tj.err = fmt.Errorf("%s: %w", m.name, err)
			return tj
		}
	}
	rec.end(base)
	return tj
}

// tracedPass is one traced pass: its jobs, in the order run.
type tracedPass []tracedJob

// runTracedPipeline alternates untraced passes (public API) with traced
// passes (layer by layer) until the deadline, checks both, and stores the
// per-layer metrics in r. Untraced outcomes are checked against refs; each
// traced outcome must be byte-identical to the untraced outcome of the same
// program (the drift check).
func runTracedPipeline(r report, rec *recorder, progs []program, refs map[string]outcome, minPairs int, deadline time.Time, rng *rand.Rand, c *checker) {
	var untraced []pass
	var traced []tracedPass
	var gcs []gcSnapshot
	jobID := 0
	for len(traced) < minPairs || time.Now().Before(deadline) {
		g0 := readGC()
		u := runPass(shuffled(progs, rng), 1, nil)
		gcs = append(gcs, g0, readGC())
		untraced = append(untraced, u)
		checkPasses(c, []pass{u}, refs)
		byName := map[string]outcome{}
		for _, j := range u.jobs {
			byName[j.name] = j.out
		}
		var tp tracedPass
		for _, p := range shuffled(progs, rng) {
			jobID++
			tj := runTracedJob(rec, jobID, p)
			c.check("drift "+p.name, tj.out, tj.err, byName[p.name])
			tp = append(tp, tj)
		}
		traced = append(traced, tp)
	}
	pipelineLayerMetrics(r, rec, untraced, traced)
	var cycles, pause, alloc []float64
	for i := 0; i+1 < len(gcs); i += 2 {
		g := report{}
		gcDelta(g, gcs[i], gcs[i+1])
		cycles = append(cycles, g["gc.cycles"])
		pause = append(pause, g["gc.pause_s"])
		alloc = append(alloc, g["gc.alloc_mb"])
	}
	r["gc.cycles"], r["gc.pause_s"], r["gc.alloc_mb"] = median(cycles), median(pause), median(alloc)
}

// pipelineLayerMetrics derives the per-layer metrics: every time is the
// median over traced passes of the per-pass sum over programs.
func pipelineLayerMetrics(r report, rec *recorder, untraced []pass, traced []tracedPass) {
	self, selfAlloc := rec.selfTimes()
	spans := rec.spans
	byJob := map[int][]span{}
	for _, s := range spans {
		byJob[s.Job] = append(byJob[s.Job], s)
	}

	perPass := map[string][]float64{}
	perProg := map[string][]float64{}
	for _, tp := range traced {
		sums := map[string]float64{}
		var raw, encoded uint64
		for _, tj := range tp {
			root := spans[tj.root]
			sums["trace.traced_wall_s"] += root.End - root.Start
			sums["trace.unattributed_s"] += self[tj.root]
			var hcpaS, plainS float64
			for _, s := range byJob[root.Job] {
				if s.Parent < 0 {
					continue
				}
				sums[timeKey(s.Name)] += self[s.ID]
				sums[s.Name+".alloc_mb"] += selfAlloc[s.ID] / (1 << 20)
				switch s.Name {
				case "bytecode.run_hcpa":
					hcpaS = self[s.ID]
				case "bytecode.run_plain":
					plainS = self[s.ID]
				}
			}
			if plainS > 0 {
				perProg["program."+tj.name+".kremlib.overhead_x"] = append(perProg["program."+tj.name+".kremlib.overhead_x"], hcpaS/plainS)
			}
			raw += tj.raw
			encoded += tj.encoded
		}
		sums["kremlib.s"] = sums["bytecode.run_hcpa_s"] - sums["bytecode.run_plain_s"]
		if encoded > 0 {
			sums["profile.compression_x"] = float64(raw) / float64(encoded)
		}
		for k, v := range sums {
			perPass[k] = append(perPass[k], v)
		}
	}
	for k, xs := range perPass {
		r[k] = median(xs)
	}
	if p := r["bytecode.run_plain_s"]; p > 0 {
		r["kremlib.overhead_x"] = r["bytecode.run_hcpa_s"] / p
	}
	if g := r["bytecode.run_gprof_s"]; g > 0 {
		r["kremlib.over_gprof_x"] = r["bytecode.run_hcpa_s"] / g
	}
	last := traced[len(traced)-1]
	var instrs, regs, dict, pages int
	var steps, work, writes uint64
	for _, tj := range last {
		instrs += tj.instrs
		regs += tj.regions
		dict += tj.dict
		pages += tj.pages
		steps += tj.steps
		work += tj.work
		writes += tj.writes
	}
	r["ir.instrs"], r["regions.count"], r["profile.dict_entries"] = float64(instrs), float64(regs), float64(dict)
	r["interp.steps"], r["interp.work"] = float64(steps), float64(work)
	r["shadow.pages"], r["shadow.writes"] = float64(pages), float64(writes)

	var uwall []float64
	for _, p := range untraced {
		var sum time.Duration
		for _, j := range p.jobs {
			sum += j.total
			perProg["program."+j.name+".wall_ms"] = append(perProg["program."+j.name+".wall_ms"], millis(j.total))
		}
		uwall = append(uwall, seconds(sum))
	}
	for k, xs := range perProg {
		r[k] = median(xs)
	}
	r["trace.untraced_wall_s"] = median(uwall)
	r["trace.overhead_s"] = r["trace.traced_wall_s"] - r["trace.untraced_wall_s"]
	r["trace.spans"] = float64(len(spans))
}

// timeKey names the self-time metric of a span: "<layer>.s" for a compile
// layer, "<layer>_s" for a run, encode, summarize or plan step.
func timeKey(spanName string) string {
	switch spanName {
	case "bytecode.run_plain", "bytecode.run_gprof", "bytecode.run_hcpa",
		"profile.encode", "hcpa.summarize", "planner.make":
		return spanName + "_s"
	}
	return spanName + ".s"
}
