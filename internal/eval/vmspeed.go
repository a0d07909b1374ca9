package eval

// VM-speed experiment: wall-clock of the block-batched bytecode VM
// against the tree-walking reference interpreter over the benchmark
// suite, in plain (uninstrumented) and HCPA (full profiling) modes,
// together with the equivalence evidence — identical program output and
// counters, byte-identical KRPF2 profiles, identical rendered plans.
// This is the repo's record that the VM is a pure speed upgrade.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"kremlin"
	"kremlin/internal/bench"
	"kremlin/internal/interp"
	"kremlin/internal/planner"
	"kremlin/internal/profile"
)

// VMSpeedRow is the engine comparison for one benchmark.
type VMSpeedRow struct {
	Name  string `json:"name"`
	Steps uint64 `json:"steps"` // interpreter steps per run (both engines agree)

	PlainVM      time.Duration `json:"plain_vm_ns"`
	PlainTree    time.Duration `json:"plain_tree_ns"`
	PlainSpeedup float64       `json:"plain_speedup"`

	HCPAVM      time.Duration `json:"hcpa_vm_ns"`
	HCPATree    time.Duration `json:"hcpa_tree_ns"`
	HCPASpeedup float64       `json:"hcpa_speedup"`
	// HCPABatchedFrac is the share of the VM's HCPA steps whose shadow
	// updates went through block templates (StepBlock) rather than
	// per-instruction Steps.
	HCPABatchedFrac float64 `json:"hcpa_batched_frac"`

	// Bounds-check elimination: the same VM with absint facts withheld
	// (-absint=off), so every check stays explicit. The unchecked build
	// must never lose to its own checked baseline.
	PlainChecked  time.Duration `json:"plain_checked_ns"`
	AbsintSpeedup float64       `json:"absint_speedup"`

	// Equivalence evidence, checked on this very measurement run.
	OutputEqual   bool `json:"output_equal"`   // plain output bytes identical
	CountersEqual bool `json:"counters_equal"` // work + steps identical, both modes
	ProfileEqual  bool `json:"profile_equal"`  // KRPF2 profile bytes identical
	PlanEqual     bool `json:"plan_equal"`     // rendered OpenMP plans identical
}

// VMSpeedSummary is the whole experiment: per-benchmark rows plus the
// headline geomeans.
type VMSpeedSummary struct {
	Rows []VMSpeedRow `json:"rows"`
	// PlainGeomean is the headline: geomean wall-clock speedup of the VM
	// over the tree-walker with no instrumentation (pure dispatch cost).
	PlainGeomean float64 `json:"plain_geomean_speedup"`
	// HCPAGeomean is the instrumented speedup (shadow-memory work, which
	// both engines share, bounds it below the plain number).
	HCPAGeomean float64 `json:"hcpa_geomean_speedup"`
	// AbsintGeomean is the bounds-check-elimination payoff: geomean
	// plain wall-clock speedup of the default (unchecked-ops) build over
	// the same VM compiled with -absint=off (every check explicit).
	AbsintGeomean float64 `json:"absint_geomean_speedup"`
	// AllEqual is true when every row's equivalence flags all hold.
	AllEqual bool `json:"all_equal"`
}

// timeBest runs f repeats times and returns the fastest wall-clock (the
// usual best-of-N noise filter for single-process benchmarking).
func timeBest(repeats int, f func() error) (time.Duration, error) {
	best, _, err := timeBestPair(repeats, f, nil)
	return best, err
}

// timeBestPair is timeBest for two contenders whose runs alternate, so a
// slow stretch of a shared machine hits both alike instead of whichever
// happened to be timed during it. Each run starts from a collected heap,
// so neither pays for the other's garbage. A nil g is skipped.
func timeBestPair(repeats int, f, g func() error) (time.Duration, time.Duration, error) {
	best := [2]time.Duration{time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)}
	for i := 0; i < repeats; i++ {
		for k, h := range [2]func() error{f, g} {
			if h == nil {
				continue
			}
			runtime.GC()
			start := time.Now()
			if err := h(); err != nil {
				return 0, 0, err
			}
			if d := time.Since(start); d < best[k] {
				best[k] = d
			}
		}
	}
	return best[0], best[1], nil
}

// VMSpeed measures the engine comparison over the named benchmarks (nil =
// the whole suite), timing each engine/mode best-of-repeats (repeats ≤ 0
// defaults to 3).
func VMSpeed(names []string, repeats int) (*VMSpeedSummary, error) {
	if repeats <= 0 {
		repeats = 3
	}
	benches := bench.All()
	if len(names) > 0 {
		benches = benches[:0:0]
		for _, n := range names {
			b := bench.ByName(n)
			if b == nil {
				return nil, fmt.Errorf("eval: unknown benchmark %q", n)
			}
			benches = append(benches, b)
		}
	}
	sum := &VMSpeedSummary{AllEqual: true}
	plainLog, hcpaLog, absintLog := 0.0, 0.0, 0.0
	for _, b := range benches {
		prog, err := kremlin.Compile(b.Name+".kr", b.Source)
		if err != nil {
			return nil, err
		}
		prog.Bytecode() // compile outside the timed region
		checked, err := kremlin.CompileWith(b.Name+".kr", b.Source,
			kremlin.CompileOptions{DisableAbsint: true})
		if err != nil {
			return nil, err
		}
		checked.Bytecode()
		row := VMSpeedRow{Name: b.Name}

		// One untimed warm-up of each build: the first-ever execution
		// pays one-off costs (heap growth, page faults) that would bias
		// whichever build is timed first.
		if _, err := prog.Run(&kremlin.RunConfig{Out: io.Discard}); err != nil {
			return nil, fmt.Errorf("eval: %s warm-up: %w", b.Name, err)
		}
		if _, err := checked.Run(&kremlin.RunConfig{Out: io.Discard}); err != nil {
			return nil, fmt.Errorf("eval: %s warm-up checked: %w", b.Name, err)
		}

		// Plain mode: output + counters must match across engines.
		var vmOut, treeOut strings.Builder
		var vmRes, treeRes *interp.Result
		row.PlainVM, row.PlainTree, err = timeBestPair(repeats, func() error {
			vmOut.Reset()
			r, err := prog.Run(&kremlin.RunConfig{Out: &vmOut})
			vmRes = r
			return err
		}, func() error {
			treeOut.Reset()
			r, err := prog.Run(&kremlin.RunConfig{Out: &treeOut, Engine: kremlin.EngineTree})
			treeRes = r
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("eval: %s plain: %w", b.Name, err)
		}
		row.Steps = vmRes.Steps
		row.OutputEqual = vmOut.String() == treeOut.String()
		row.CountersEqual = vmRes.Work == treeRes.Work && vmRes.Steps == treeRes.Steps

		// Checked baseline: identical semantics, every check explicit.
		var chkOut strings.Builder
		var chkRes *interp.Result
		row.PlainChecked, err = timeBest(repeats, func() error {
			chkOut.Reset()
			r, err := checked.Run(&kremlin.RunConfig{Out: &chkOut})
			chkRes = r
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("eval: %s plain checked: %w", b.Name, err)
		}
		if chkOut.String() != vmOut.String() {
			row.OutputEqual = false
		}
		if chkRes.Work != vmRes.Work || chkRes.Steps != vmRes.Steps {
			row.CountersEqual = false
		}

		// HCPA mode: profiles must serialize byte-identically and plan
		// identically.
		var vmProf, treeProf *profile.Profile
		row.HCPAVM, row.HCPATree, err = timeBestPair(repeats, func() error {
			p, r, err := prog.Profile(nil)
			vmProf = p
			if err == nil {
				row.HCPABatchedFrac = float64(r.BatchedSteps) / float64(r.Steps)
			}
			return err
		}, func() error {
			p, r, err := prog.Profile(&kremlin.RunConfig{Engine: kremlin.EngineTree})
			treeProf = p
			if err == nil && (r.Work != vmRes.Work || r.Steps != vmRes.Steps) {
				row.CountersEqual = false
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("eval: %s hcpa: %w", b.Name, err)
		}
		var vb, tb bytes.Buffer
		if _, err := vmProf.WriteTo(&vb); err != nil {
			return nil, err
		}
		if _, err := treeProf.WriteTo(&tb); err != nil {
			return nil, err
		}
		row.ProfileEqual = bytes.Equal(vb.Bytes(), tb.Bytes())
		// The checked build's profile must also serialize byte-identically
		// — bounds-check elimination may change nothing observable.
		chkProf, _, err := checked.Profile(nil)
		if err != nil {
			return nil, fmt.Errorf("eval: %s hcpa checked: %w", b.Name, err)
		}
		var cb bytes.Buffer
		if _, err := chkProf.WriteTo(&cb); err != nil {
			return nil, err
		}
		if !bytes.Equal(cb.Bytes(), vb.Bytes()) {
			row.ProfileEqual = false
		}
		row.PlanEqual = prog.Plan(vmProf, planner.OpenMP()).Render() ==
			prog.Plan(treeProf, planner.OpenMP()).Render()

		row.PlainSpeedup = float64(row.PlainTree) / float64(row.PlainVM)
		row.HCPASpeedup = float64(row.HCPATree) / float64(row.HCPAVM)
		row.AbsintSpeedup = float64(row.PlainChecked) / float64(row.PlainVM)
		plainLog += math.Log(row.PlainSpeedup)
		hcpaLog += math.Log(row.HCPASpeedup)
		absintLog += math.Log(row.AbsintSpeedup)
		if !row.OutputEqual || !row.CountersEqual || !row.ProfileEqual || !row.PlanEqual {
			sum.AllEqual = false
		}
		sum.Rows = append(sum.Rows, row)
	}
	if n := len(sum.Rows); n > 0 {
		sum.PlainGeomean = math.Exp(plainLog / float64(n))
		sum.HCPAGeomean = math.Exp(hcpaLog / float64(n))
		sum.AbsintGeomean = math.Exp(absintLog / float64(n))
	}
	return sum, nil
}
