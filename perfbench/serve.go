package main

import (
	"bufio"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kremlin/internal/bench"
	"kremlin/internal/inccache"
	"kremlin/internal/krgen"
	"kremlin/internal/serve"
)

// Serve-mix settings. The gated figures come from closed-loop drains:
// each drain submits a seeded job list of fixed class composition over
// serveConns connections, each sending its next job as soon as the last is
// done, so a slower daemon shows as a longer drain rather than as a queue.
// The open-loop phases at fixed absolute rates (light, heavy and the
// ladder) run in a traced run only, where their figures are printed.
const (
	serveWorkers = 2 // daemon worker pool, = nproc
	serveConns   = 2 // client connections, = nproc
	// The caches are sized against the traffic below so that each class
	// hits or misses the way its name says, nearly every time, with the
	// compile cache's programs (about 4 MB each) kept to a modest heap. Per
	// 20 jobs about 12 are stored in the FIFO job cache, so an entry lives
	// for about 50 jobs: a repeat program comes back every 10 and hits, a
	// repersona pairing only every 120 and misses. Per 20 jobs 7 programs
	// are stored in the LRU compile cache, so an untouched one lives for
	// about 90 jobs, and repersona touches each pool program every 40.
	// Fresh, edit and heavy sources never recur within either lifetime and
	// force the evictions.
	jobCacheSize  = 32
	compCacheSize = 32
	incMaxRecords = 1 << 14
	poolSize      = 8 // programs submitted in setup; repersona cycles through them
	repeatPool    = 3 // repeat cycles through the first repeatPool of them
	editLines     = 400
	editIters     = 4
	drainBlocks   = 10 // blocks of classBlock per drain
	minDrains     = 3
	// passesPerDrain is how many in-process passes run before each drain.
	// A pass takes about half a drain; three give profile_s and compile_s,
	// whose programs differ most in cost, more samples.
	passesPerDrain = 3
	// lightRate and heavyRate are about a tenth and a fifth of the
	// daemon's capacity for this mix on a 2-vCPU Xeon (the ladder put it
	// near 180 jobs/s), low enough that a slow stretch of the machine
	// does not saturate them.
	lightRate    = 20.0 // jobs/s
	heavyRate    = 40.0 // jobs/s
	latencyLimit = 500 * time.Millisecond
	// freshSamples is how many fresh programs the in-process passes take;
	// generated programs differ several-fold in cost, so a few would make
	// the passes' cost depend on the seed.
	freshSamples = 16
	// backlogGrowth is the least growth, in jobs, that counts as a growing
	// backlog (see phase.growing).
	backlogGrowth = 8.0
	// Shares of --seconds a traced run adds: the light and heavy phases
	// and each ladder step.
	lightShare  = 0.3
	heavyShare  = 0.25
	ladderShare = 0.05
)

// ladderRates are the rates above heavy that max_jobs_per_s climbs, in
// order, until one fails the latency limit.
var ladderRates = []float64{60, 90, 135, 200, 300}

// classBlock is the traffic mix: jobs of each class, in serveClasses
// order, per block of 20 consecutive jobs. The shares are assumed, not
// measured: the repository holds no record of real daemon traffic. They
// are chosen for what the gated drain figures have to catch. One heavy job
// in 20 is a little over half of a drain's CPU time, so wall_s and cpu_s
// also move with the front-end classes (fresh and edit, about a fifth)
// and the per-job daemon overhead, not only with HCPA; the hit classes
// (repeat, repersona, lint) are 13 jobs in 20, so each class median in
// geomean_program_ms rests on many samples.
var classBlock = []int{2, 6, 4, 4, 1, 3}

// heavyPrograms are the HCPA-bound suite programs of the heavy class. ep
// is left out: it costs about 40% less than these two, which would split
// the heavy class in two and let its median and the tails flip between
// the halves.
var heavyPrograms = []string{"cg", "lu"}

// otherPersonalities are what repersona jobs ask for instead of openmp.
var otherPersonalities = []string{"cilk", "work-only", "work+sp"}

// serveJob is one scheduled submission.
type serveJob struct {
	id     int
	class  string
	name   string
	src    string
	pers   string
	refKey string        // names the expected outcome; "" for lint jobs
	due    time.Duration // offset from the phase start

	// Filled in by the client.
	released, sent, done time.Time
	dueAt                time.Time
	status               int
	kind                 string // error kind, if any
	serverMS             float64
	out                  outcome
	err                  error
}

func (j *serveJob) latency() time.Duration { return j.done.Sub(j.dueAt) }

// mix holds everything a serve-mix run submits, all made from the seed.
type mix struct {
	pool     []program // repeat / repersona sources
	editBase program
	edits    []program // single-function edits of editBase, used in turn
	heavy    map[string]string
	refSrc   map[string]program // refKey → program the reference is computed from
	rng      *rand.Rand
	nextJob  int
	nextEdit int
	// nextRepeat and nextRepersona cycle through the repeat pool and the
	// repersona pairings in a fixed order, so that how often a source
	// recurs, and with it what it hits, does not depend on the draw.
	nextRepeat, nextRepersona int
	// heavyOrder is what is left of the current shuffled round of
	// heavyPrograms, so each program gets an equal share of heavy jobs.
	heavyOrder []string
}

func newMix(seed int64) *mix {
	rng := rand.New(rand.NewSource(seed))
	m := &mix{rng: rng, heavy: map[string]string{}, refSrc: map[string]program{}}
	// The pool is the same for every seed: generated programs differ
	// several-fold in cost, and the repeat and repersona medians rest on
	// these few.
	for i := 0; i < poolSize; i++ {
		m.pool = append(m.pool, program{name: fmt.Sprintf("pool%d", i), src: krgen.Generate(int64(i), krgen.Default())})
	}
	cfg := krgen.ScaleForLines(editLines, editIters)
	editSeed := rng.Int63()
	m.editBase = program{name: "edit", src: krgen.GenerateScale(editSeed, cfg, nil)}
	for f := 0; f < cfg.Funcs; f++ {
		for bump := 1; bump <= 3; bump++ {
			m.edits = append(m.edits, program{
				name: fmt.Sprintf("edit.%d.%d", f, bump),
				src:  krgen.GenerateScale(editSeed, cfg, map[int]int{f: bump}),
			})
		}
	}
	rng.Shuffle(len(m.edits), func(i, j int) { m.edits[i], m.edits[j] = m.edits[j], m.edits[i] })
	for _, n := range heavyPrograms {
		m.heavy[n] = bench.ByName(n).Source
	}
	return m
}

// job draws the next job of the given class.
func (m *mix) job(class string) *serveJob {
	m.nextJob++
	j := &serveJob{id: m.nextJob, class: class, pers: "openmp"}
	switch class {
	case "fresh":
		p := program{name: fmt.Sprintf("fresh%d", j.id), src: krgen.Generate(m.rng.Int63(), krgen.Default())}
		j.name, j.src, j.refKey = p.name, p.src, "fresh:"+p.name
		m.refSrc[j.refKey] = p
	case "repeat", "repersona":
		k := m.nextRepeat % repeatPool
		if class == "repeat" {
			m.nextRepeat++
		} else {
			// Pool program i%poolSize, personality i/poolSize: each program
			// comes back every poolSize repersona jobs, each pairing only
			// every poolSize*len(otherPersonalities).
			i := m.nextRepersona % (poolSize * len(otherPersonalities))
			m.nextRepersona++
			k = i % poolSize
			j.pers = otherPersonalities[i/poolSize]
		}
		p := m.pool[k]
		j.name, j.src, j.refKey = p.name, p.src, "pool:"+p.name+":"+j.pers
		m.refSrc[j.refKey] = p
	case "edit":
		p := m.edits[m.nextEdit%len(m.edits)]
		m.nextEdit++
		j.name, j.src, j.refKey = "edit", p.src, "edit:"+p.name
		m.refSrc[j.refKey] = program{name: "edit", src: p.src}
	case "heavy":
		if len(m.heavyOrder) == 0 {
			m.heavyOrder = append([]string(nil), heavyPrograms...)
			m.rng.Shuffle(len(m.heavyOrder), func(a, b int) {
				m.heavyOrder[a], m.heavyOrder[b] = m.heavyOrder[b], m.heavyOrder[a]
			})
		}
		n := m.heavyOrder[0]
		m.heavyOrder = m.heavyOrder[1:]
		// A trailing comment makes every heavy job miss the job cache
		// without changing what it computes.
		j.name, j.src, j.refKey = n, fmt.Sprintf("%s\n// job %d\n", m.heavy[n], j.id), "heavy:"+n
		m.refSrc[j.refKey] = program{name: n, src: m.heavy[n]}
	case "lint":
		dim := 4 + m.rng.Intn(60)
		j.name = fmt.Sprintf("lint%d", j.id)
		j.src = fmt.Sprintf("int main() {\n\tint a[%d];\n\tint s = 0;\n\tfor (int i = 0; i < %d; i++) {\n\t\ts = s + i * %d;\n\t}\n\ta[%d] = s;\n\tprint(\"s\", s);\n\treturn 0;\n}\n",
			dim, 2+m.rng.Intn(20), 1+m.rng.Intn(9), dim+m.rng.Intn(8))
	}
	return j
}

// list returns the next n jobs. Classes come in shuffled blocks that each
// hold exactly classBlock's counts, so every stretch of traffic has the
// mix's proportions and heavy jobs do not cluster beyond what a block
// allows.
func (m *mix) list(n int) []*serveJob {
	var block []string
	jobs := make([]*serveJob, n)
	for i := range jobs {
		if len(block) == 0 {
			for k, c := range classBlock {
				for ; c > 0; c-- {
					block = append(block, serveClasses[k])
				}
			}
			m.rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		jobs[i] = m.job(block[0])
		block = block[1:]
	}
	return jobs
}

// blockLen is the number of jobs in one block of classBlock.
func blockLen() int {
	n := 0
	for _, c := range classBlock {
		n += c
	}
	return n
}

// schedule returns the next n jobs, due over n/rate seconds: a seeded
// Poisson arrival process conditioned on n arrivals.
func (m *mix) schedule(n int, rate float64) []*serveJob {
	span := float64(n) / rate
	offsets := make([]float64, n)
	for i := range offsets {
		offsets[i] = m.rng.Float64() * span
	}
	sort.Float64s(offsets)
	jobs := m.list(n)
	for i, off := range offsets {
		jobs[i].due = time.Duration(off * float64(time.Second))
	}
	return jobs
}

// daemon is an in-process serve.Server behind loopback HTTP.
type daemon struct {
	srv     *serve.Server
	http    *http.Server
	url     string
	client  *http.Client
	incDir  string
	serveWG sync.WaitGroup
}

func startDaemon(workDir string) (*daemon, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "inccache-")
	if err != nil {
		return nil, err
	}
	store, err := inccache.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	store.SetMaxRecords(incMaxRecords)
	srv := serve.New(serve.Config{
		Workers:      serveWorkers,
		JobCache:     jobCacheSize,
		CompileCache: compCacheSize,
		IncCache:     store,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		incDir: dir,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		}},
	}
	d.serveWG.Add(1)
	go func() {
		defer d.serveWG.Done()
		_ = d.http.Serve(ln)
	}()
	return d, nil
}

// stop shuts the listener and the daemon down and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.http.Shutdown(ctx)
	d.serveWG.Wait()
	_ = d.srv.Drain(ctx)
	d.client.CloseIdleConnections()
	os.RemoveAll(d.incDir)
}

func (d *daemon) stats() (serve.Stats, error) {
	resp, err := d.client.Get(d.url + "/statz")
	if err != nil {
		return serve.Stats{}, err
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return serve.Stats{}, fmt.Errorf("statz: %w", err)
	}
	return st, nil
}

// submit posts j and reads its event stream.
func (d *daemon) submit(j *serveJob) {
	q := url.Values{"name": {j.name + ".kr"}, "personality": {j.pers}}
	j.sent = time.Now()
	resp, err := d.client.Post(d.url+"/v1/jobs?"+q.Encode(), "text/plain", strings.NewReader(j.src))
	if err != nil {
		j.done, j.err = time.Now(), err
		return
	}
	defer resp.Body.Close()
	j.status = resp.StatusCode
	var plan []planLine
	var est float64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		var e serve.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			j.err = fmt.Errorf("bad event: %w", err)
			break
		}
		switch e.Type {
		case "output":
			j.out.Output += e.Data
		case "profile":
			b, err := base64.StdEncoding.DecodeString(e.KRPF2)
			if err != nil {
				j.err = fmt.Errorf("profile event: %w", err)
			}
			j.out.KRPF = sha(b)
		case "plan":
			est = e.EstSpeedup
			for _, r := range e.Recs {
				plan = append(plan, planLine{r.Label, r.Hint, r.Safety, r.SelfP, r.Coverage, r.EstSpeedup})
			}
		case "done":
			j.serverMS = e.ElapsedMS
		case "error":
			j.kind = e.Kind
			if j.err == nil && j.class != "lint" {
				j.err = fmt.Errorf("%s: %s", e.Kind, clip(e.Detail))
			}
		}
	}
	if err := sc.Err(); err != nil && j.err == nil {
		j.err = err
	}
	j.done = time.Now()
	j.out.Plan = canonicalPlan(est, plan)
}

// phase is one open-loop run at a fixed rate.
type phase struct {
	rate    float64
	jobs    []*serveJob
	backlog []int // outstanding jobs at each release
	cpu     time.Duration
	gc      [2]gcSnapshot
}

// openLoop releases jobs at their due times, whatever the daemon's state,
// to serveConns sender goroutines, and returns when every job is done.
func (d *daemon) openLoop(rate float64, jobs []*serveJob) *phase {
	ph := &phase{rate: rate, jobs: jobs}
	queue := make(chan *serveJob, len(jobs)) // sized to the number of sends: the generator never blocks
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				d.submit(j)
				outstanding.Add(-1)
			}
		}()
	}
	ph.gc[0] = readGC()
	cpu0, t0 := cpuTime(), time.Now()
	for _, j := range jobs {
		j.dueAt = t0.Add(j.due)
		if w := time.Until(j.dueAt); w > 0 {
			time.Sleep(w)
		}
		j.released = time.Now()
		ph.backlog = append(ph.backlog, int(outstanding.Add(1)))
		queue <- j
	}
	close(queue)
	wg.Wait()
	ph.cpu = cpuTime() - cpu0
	ph.gc[1] = readGC()
	return ph
}

// drainRun is one closed-loop drain of a job list.
type drainRun struct {
	wall, cpu time.Duration
	jobs      []*serveJob
}

// closedLoop submits jobs over serveConns connections, each sending its
// next job as soon as its last one is done, and returns when every job is
// done.
func (d *daemon) closedLoop(jobs []*serveJob) *drainRun {
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0, t0 := cpuTime(), time.Now()
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(jobs); k = int(next.Add(1)) - 1 {
				j := jobs[k]
				j.dueAt = time.Now()
				j.released = j.dueAt
				d.submit(j)
			}
		}()
	}
	wg.Wait()
	return &drainRun{wall: time.Since(t0), cpu: cpuTime() - cpu0, jobs: jobs}
}

// drainMetrics stores serve-mix's daemon figures: wall_s and cpu_s are the
// median drain's wall and CPU time, and geomean_program_ms is the geometric
// mean over classes of each class's median send-to-done time, so that a
// class's weight does not depend on its cost or share. They replace the
// in-process passes' figures of the same names. A drain keeps both cores
// busy and does not slow down in step with the calibration kernel samples
// taken around it, so all three are scaled to reference seconds by one
// factor, from the median of every kernel sample of the run (see
// README.md).
func drainMetrics(r report, drains []*drainRun, cal *calibrator, st0, st1 serve.Stats) {
	var walls, cpus []float64
	byClass := map[string][]float64{}
	for _, dr := range drains {
		walls = append(walls, seconds(dr.wall))
		cpus = append(cpus, seconds(dr.cpu))
		for _, j := range dr.jobs {
			byClass[j.class] = append(byClass[j.class], millis(j.done.Sub(j.sent)))
		}
	}
	var classMs []float64
	var line strings.Builder
	for _, class := range serveClasses {
		m := median(byClass[class])
		classMs = append(classMs, m)
		fmt.Fprintf(&line, " %s %.2f", class, m)
	}
	for _, sc := range cal.scalings() {
		r[sc.prefix+"wall_s"], r[sc.prefix+"cpu_s"] = median(walls)*sc.run, median(cpus)*sc.run
		r[sc.prefix+"geomean_program_ms"] = geomean(classMs) * sc.run
	}
	fmt.Printf("drains %d of %d jobs; class median ms:%s; hit ratios: job cache %.2f, compile cache %.2f, inccache %.2f\n",
		len(drains), len(drains[0].jobs), line.String(),
		ratio(st1.CacheHits-st0.CacheHits, st1.CacheHits-st0.CacheHits+st1.CacheMisses-st0.CacheMisses),
		ratio(st1.CompileHits-st0.CompileHits, st1.CompileHits-st0.CompileHits+st1.CompileMisses-st0.CompileMisses),
		ratio(st1.IncHits-st0.IncHits, st1.IncLookups-st0.IncLookups))
}

func ratio(hits, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// latencies returns the due-to-done latencies in ms; failed jobs count as
// missing any limit.
func (ph *phase) latencies() []float64 {
	var xs []float64
	for _, j := range ph.jobs {
		l := millis(j.latency())
		if j.err != nil {
			l = 1e9
		}
		xs = append(xs, l)
	}
	return xs
}

// growing reports whether the backlog grew across the phase: its mean over
// the last quarter of arrivals exceeds the mean over the first quarter by
// more than backlogGrowth jobs or 5% of the phase's jobs, whichever is more.
func (ph *phase) growing() bool {
	n := len(ph.backlog) / 4
	if n == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	return mean(ph.backlog[len(ph.backlog)-n:]) > mean(ph.backlog[:n])+max(backlogGrowth, 0.05*float64(len(ph.backlog)))
}

// meetsLimit reports whether the phase's tail met the latency limit
// without a growing backlog.
func (ph *phase) meetsLimit() bool {
	t, _ := tail(ph.latencies())
	return t <= millis(latencyLimit) && !ph.growing()
}

// ladder returns max_jobs_per_s. It takes the light and heavy phases as the
// ladder's first two steps and climbs ladderRates until a step fails the
// latency limit. Between the last step that met the limit and the first
// that missed it by its tail, the rate is interpolated to where the tail
// reaches the limit (log-linear in latency), so the figure moves
// continuously rather than in ladder steps. A step that fails by a growing
// backlog alone ends the climb at the step before it.
func (s *serveSetup) ladder(light, heavy *phase, total time.Duration) (float64, []*phase) {
	var extra []*phase
	steps := []*phase{light, heavy}
	limit := millis(latencyLimit)
	for i := 0; ; i++ {
		if i == len(steps) {
			if i-2 >= len(ladderRates) {
				return steps[i-1].rate, extra
			}
			rate := ladderRates[i-2]
			n := max(int(rate*ladderShare*total.Seconds()), 12)
			ph := s.d.openLoop(rate, s.m.schedule(n, rate))
			extra = append(extra, ph)
			steps = append(steps, ph)
		}
		ph := steps[i]
		t, pct := tail(ph.latencies())
		fmt.Printf("step %.0f jobs/s: %d jobs, p50 %.1f ms, p%.1f %.1f ms, backlog grew %v\n",
			ph.rate, len(ph.jobs), median(ph.latencies()), pct, t, ph.growing())
		if ph.meetsLimit() {
			continue
		}
		if i == 0 {
			return 0, extra
		}
		prev := steps[i-1]
		tp, _ := tail(prev.latencies())
		if t <= limit || tp <= 0 {
			return prev.rate, extra
		}
		f := (math.Log(limit) - math.Log(tp)) / (math.Log(t) - math.Log(tp))
		return prev.rate + f*(ph.rate-prev.rate), extra
	}
}

// serveSetup is the state a serve-mix run measures against.
type serveSetup struct {
	d    *daemon
	m    *mix
	idle map[string]float64 // class → median idle server elapsed, ms
	warm []*serveJob        // the set-up's own jobs, checked with the rest
}

// setupServe makes the inputs, starts the daemon, warms its caches with the
// pool and the edit base, and measures each class's idle service time.
func setupServe(o options) (*serveSetup, error) {
	m := newMix(o.seed)
	d, err := startDaemon(o.dir)
	if err != nil {
		return nil, err
	}
	s := &serveSetup{d: d, m: m, idle: map[string]float64{}}
	for _, p := range append(append([]program(nil), m.pool...), m.editBase) {
		j := &serveJob{class: "warm", name: p.name, src: p.src, pers: "openmp", refKey: "pool:" + p.name + ":openmp"}
		if p.name == "edit" {
			j.refKey = "edit:base"
		}
		m.refSrc[j.refKey] = p
		s.runSerial(j)
	}
	samples := map[string][]float64{}
	for round := 0; round < 3; round++ {
		for _, class := range serveClasses {
			j := m.job(class)
			s.runSerial(j)
			samples[class] = append(samples[class], j.serverMS)
		}
	}
	for class, xs := range samples {
		s.idle[class] = median(xs)
	}
	for _, j := range s.warm {
		if j.err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up job %s: %v", j.name, j.err)
		}
	}
	return s, nil
}

func (s *serveSetup) runSerial(j *serveJob) {
	j.dueAt, j.released = time.Now(), time.Now()
	s.d.submit(j)
	s.warm = append(s.warm, j)
}

// servePrograms are the in-process serial passes' programs: one fixed
// sample of each kind the mix runs to a plan (generated, edited, heavy).
// The sample does not depend on the seed, because generated programs differ
// several-fold in cost and the passes' cost must not.
func servePrograms() []program {
	var ps []program
	for i := 0; i < freshSamples; i++ {
		ps = append(ps, program{name: fmt.Sprintf("fresh.sample%d", i), src: krgen.Generate(int64(i), krgen.Default())})
	}
	cfg := krgen.ScaleForLines(editLines, editIters)
	ps = append(ps,
		program{name: "edit.base", src: krgen.GenerateScale(0, cfg, nil)},
		program{name: "edit.sample", src: krgen.ScaleEdit(0, cfg, 0)})
	for _, n := range heavyPrograms {
		ps = append(ps, program{name: n, src: bench.ByName(n).Source})
	}
	return ps
}

// runServeWorkload measures serve-mix: serial in-process passes over a
// sample of the mix's programs, then closed-loop drains through the daemon
// for the rest of --seconds. A traced run then adds the open-loop phases at
// the light and heavy rates, the ladder above heavy, and traced pipeline
// passes over the in-process sample, with per-job spans for the light and
// heavy phases.
func runServeWorkload(o options, r report, c *checker, cal *calibrator) error {
	var prev *serveSetup
	s, err := timeSetup(r, cal, func() (*serveSetup, error) {
		if prev != nil {
			prev.d.stop()
		}
		var err error
		prev, err = setupServe(o)
		return prev, err
	})
	if err != nil {
		if prev != nil {
			prev.d.stop()
		}
		return err
	}
	defer s.d.stop()

	total := time.Duration(o.seconds) * time.Second
	progs := servePrograms()
	progRefs, err := treeRefs(progs)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.seed))
	drainLen := drainBlocks * blockLen()
	if o.smoke {
		drainLen = blockLen()
	}
	st0, err := s.d.stats()
	if err != nil {
		return err
	}
	// The daemon's heap grows with every distinct program it has run (the
	// shared incremental cache keeps each module it has seen), so the peak
	// is read after a fixed number of jobs, the same work in every run
	// whatever the machine's speed. The first drains run back to back, so
	// that when the collector runs during them does not depend on the
	// in-process passes' garbage either.
	deadline := time.Now().Add(total)
	var drains []*drainRun
	for len(drains) < minDrains {
		drains = append(drains, s.d.closedLoop(s.m.list(drainLen)))
	}
	r["peak_rss_mb"] = peakRSSMB()
	// Then in-process passes and drains alternate for the rest of --seconds.
	passes := 0
	sr, err := runSerial(progs, passesPerDrain, deadline, rng, cal, func() {
		if passes++; passes%passesPerDrain == 0 {
			drains = append(drains, s.d.closedLoop(s.m.list(drainLen)))
		}
	})
	if err != nil {
		return err
	}
	checkPasses(c, sr.passes, progRefs)
	serialMetrics(r, sr)
	st1, err := s.d.stats()
	if err != nil {
		return err
	}
	drainMetrics(r, drains, cal, st0, st1)

	// Every job is checked, the set-up's included, after the timed part.
	all := append([]*serveJob(nil), s.warm...)
	for _, dr := range drains {
		all = append(all, dr.jobs...)
	}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
		ol, err := s.runOpenLoop(r, total)
		if err != nil {
			return err
		}
		for _, ph := range append([]*phase{ol.light, ol.heavy}, ol.ladder...) {
			all = append(all, ph.jobs...)
		}
		runTracedPipeline(r, rec, progs, progRefs, 1, time.Now().Add(total*3/10), rng, c)
		serveLayerMetrics(r, rec, s, ol)
	}
	if err := checkServeJobs(c, s.m, all); err != nil {
		return err
	}
	if rec != nil {
		return writeSpans(o, rec)
	}
	return nil
}

// openLoopRun is a traced run's open-loop measurement.
type openLoopRun struct {
	light, heavy *phase
	st0, st1     serve.Stats // /statz before the light and after the heavy phase
	ladder       []*phase    // the ladder's steps above heavy
}

// runOpenLoop runs the light and heavy phases and the ladder above them,
// and stores the job latency and capacity figures in r.
func (s *serveSetup) runOpenLoop(r report, total time.Duration) (*openLoopRun, error) {
	nLight := max(int(lightRate*lightShare*total.Seconds()), 12)
	nHeavy := max(int(heavyRate*heavyShare*total.Seconds()), 12)
	lightJobs := s.m.schedule(nLight, lightRate)
	heavyJobs := s.m.schedule(nHeavy, heavyRate)
	ol := &openLoopRun{}
	var err error
	if ol.st0, err = s.d.stats(); err != nil {
		return nil, err
	}
	ol.light = s.d.openLoop(lightRate, lightJobs)
	ol.heavy = s.d.openLoop(heavyRate, heavyJobs)
	if ol.st1, err = s.d.stats(); err != nil {
		return nil, err
	}
	r["max_jobs_per_s"], ol.ladder = s.ladder(ol.light, ol.heavy, total)
	ll, hl := ol.light.latencies(), ol.heavy.latencies()
	var lpct, hpct float64
	r["job_p50_ms.light"] = median(ll)
	r["job_tail_ms.light"], lpct = tail(ll)
	r["job_p50_ms.heavy"] = median(hl)
	r["job_tail_ms.heavy"], hpct = tail(hl)
	fmt.Printf("job_tail_ms.light is p%.1f of %d jobs, job_tail_ms.heavy is p%.1f of %d jobs; backlog grew: light %v heavy %v\n",
		lpct, len(ll), hpct, len(hl), ol.light.growing(), ol.heavy.growing())
	return ol, nil
}

// checkServeJobs compares each job with its tree-engine reference; lint
// jobs must get the typed 422.
func checkServeJobs(c *checker, m *mix, jobs []*serveJob) error {
	refs := map[string]outcome{}
	for _, j := range jobs {
		if j.class == "lint" {
			if j.status == http.StatusUnprocessableEntity && j.kind == "lint_error" && j.err == nil {
				c.ok()
			} else {
				c.fail("lint job %s: status %d kind %q err %v", j.name, j.status, j.kind, j.err)
			}
			continue
		}
		want, ok := refs[j.refKey]
		if !ok {
			p := m.refSrc[j.refKey]
			pers, _ := serve.Personality(j.pers)
			ref, err := treeReference(p.name, p.src, pers)
			if err != nil {
				return fmt.Errorf("reference for %s: %w", j.refKey, err)
			}
			refs[j.refKey], want = ref, ref
		}
		err := j.err
		if err == nil && j.status != http.StatusOK {
			err = fmt.Errorf("status %d", j.status)
		}
		c.check(j.class+" "+j.name, j.out, err, want)
	}
	return nil
}

// serveLayerMetrics derives the serve per-layer metrics from the light and
// heavy phases and the daemon's /statz deltas, and records per-job spans.
func serveLayerMetrics(r report, rec *recorder, s *serveSetup, ol *openLoopRun) {
	light, heavy, st0, st1 := ol.light, ol.heavy, ol.st0, ol.st1
	for _, ph := range []*phase{light, heavy} {
		for _, j := range ph.jobs {
			id := 1_000_000 + j.id
			root := rec.add("serve.job", -1, id, j.dueAt, j.done)
			rec.add("serve.gen_lag", root, id, j.dueAt, j.released)
			rec.add("serve.conn_wait", root, id, j.released, j.sent)
			rec.add("serve.request", root, id, j.sent, j.done)
		}
	}
	byClass := map[string][]float64{}
	for _, j := range light.jobs {
		byClass[j.class] = append(byClass[j.class], millis(j.latency()))
	}
	for class, xs := range byClass {
		r["serve.class."+class+".p50_ms"] = median(xs)
	}
	var elapsed, queue, conn, gap, lag []float64
	for _, j := range heavy.jobs {
		elapsed = append(elapsed, j.serverMS)
		queue = append(queue, j.serverMS-s.idle[j.class])
		conn = append(conn, millis(j.sent.Sub(j.released)))
		gap = append(gap, millis(j.done.Sub(j.sent))-j.serverMS)
		lag = append(lag, millis(j.released.Sub(j.dueAt)))
	}
	r["serve.server_elapsed_ms"] = median(elapsed)
	r["serve.queue_wait_ms"] = median(queue)
	r["serve.conn_wait_ms"] = median(conn)
	r["serve.client_gap_ms"] = median(gap)
	r["serve.gen_lag_ms"], _ = tail(lag)
	backlog := 0
	for _, b := range heavy.backlog {
		backlog = max(backlog, b)
	}
	r["serve.backlog_max"] = float64(backlog)
	r["serve.jobcache.hit_ratio"] = ratio(st1.CacheHits-st0.CacheHits, st1.CacheHits-st0.CacheHits+st1.CacheMisses-st0.CacheMisses)
	r["serve.compilecache.hit_ratio"] = ratio(st1.CompileHits-st0.CompileHits, st1.CompileHits-st0.CompileHits+st1.CompileMisses-st0.CompileMisses)
	r["serve.inccache.hit_ratio"] = ratio(st1.IncHits-st0.IncHits, st1.IncLookups-st0.IncLookups)
	r["serve.lint_rejected"] = float64(st1.LintReject - st0.LintReject)
	r["serve.shed"] = float64(st1.Shed - st0.Shed)
	gcDelta(r, heavy.gc[0], heavy.gc[1])
}
