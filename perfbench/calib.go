package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared, and how fast it runs the
// interpreter changes by up to 2x from one stretch of seconds to the next
// with other tenants' use of the cores, caches and memory; a plain
// arithmetic loop moves much less. Ten runs of the same code then spread
// by more than any bound a gated metric may have. So a run also times a
// calibration kernel right before every job of its serial passes, every
// compile-only round and every set-up, and reports the times it measures
// there in reference seconds: each raw time is scaled by calibRefMS over
// the mean of the kernel samples around it. Because the speed changes
// within seconds, a job is scaled by the two samples that bracket it
// rather than by one figure for the whole run; set-up by all of its
// samples. serve-mix's drain figures are scaled by one factor for the whole
// run (see drainMetrics).
//
// The kernel is a small switch-dispatched interpreter running one fixed
// program over a 1 MiB heap and a map, the same kind of work as the
// bytecode VM and its shadow memory. Nothing of the repository's code runs
// in it, so a change to the program moves a scaled time exactly as it
// moves the raw one; only the machine's speed is factored out. The raw
// figures and the kernel's median are printed alongside (see README.md
// for how well the kernel tracks the pipeline).

// calibRefMS is the kernel time at which a scaled time equals the raw
// one: about the kernel's median on the 2-vCPU Xeon (KVM guest) the
// benchmark was built on, whose speed moves around it.
const calibRefMS = 10.0

// calibSteps is the kernel's length in interpreted instructions, and
// calibWarmSteps the length of the untimed run before each timed one. The
// kernel interprets one fixed program, as the VM does, so the branch
// predictor learns it; the warm-up run trains the predictor and loads the
// heap into the cache, so that a sample depends less on what ran just
// before it (unwarmed, it ran about 12% slower right after a suite job
// than right after itself; warmed, about 4%).
const (
	calibSteps     = 1_200_000
	calibWarmSteps = 300_000
)

type calibInst struct {
	op   uint8
	a, b int32
}

const (
	calibHeapLen = 1 << 17 // int64 words: 1 MiB
	calibKeys    = 1 << 12
)

// calibCode is the kernel's fixed program; calibHeap and calibMap its
// memory. The heap is mapped outside the Go heap, so the collector neither
// scans it nor sizes its target by it, and the map holds every key it is
// ever written with, so the kernel allocates nothing.
var (
	calibCode = func() []calibInst {
		x := uint64(12345)
		code := make([]calibInst, 4096)
		for i := range code {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			code[i] = calibInst{op: uint8(x % 7), a: int32(x >> 8 & 255), b: int32(x >> 20 & 255)}
		}
		return code
	}()
	calibHeap = func() []int64 {
		b, err := syscall.Mmap(-1, 0, calibHeapLen*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
		if err != nil {
			panic(fmt.Sprintf("mapping the calibration heap: %v", err))
		}
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), calibHeapLen)
	}()
	calibMap = func() map[int64]int32 {
		m := make(map[int64]int32, calibKeys)
		for k := int64(0); k < calibKeys; k++ {
			m[k] = 0
		}
		return m
	}()
	calibSink int64
)

// calibKernel runs the kernel for the given number of steps.
func calibKernel(steps int) {
	var regs [256]int64
	pc := 0
	var acc int64 = 1
	for step := 0; step < steps; step++ {
		in := calibCode[pc]
		switch in.op {
		case 0:
			regs[in.a] = regs[in.b] + acc
		case 1:
			regs[in.a] = regs[in.b]*3 ^ acc
		case 2:
			regs[in.a] = calibHeap[(regs[in.b]^acc)&(calibHeapLen-1)]
		case 3:
			calibHeap[(regs[in.a]+acc)&(calibHeapLen-1)] = regs[in.b]
		case 4:
			calibMap[(regs[in.a]^acc)&(calibKeys-1)] = int32(step)
		case 5:
			if regs[in.a]&1 == 0 {
				pc = int(in.b) * 16
				acc++
				continue
			}
		case 6:
			acc += regs[in.a] >> 3
		}
		pc++
		if pc == len(calibCode) {
			pc = 0
		}
	}
	calibSink += acc
}

// calibrator collects a run's kernel times, in order.
type calibrator struct {
	ms []float64
}

// sample warms the kernel up, times it once, and returns the sample's
// index, by which a time measured right after it is scaled. A nil
// calibrator does nothing and returns -1.
func (c *calibrator) sample() int {
	if c == nil {
		return -1
	}
	calibKernel(calibWarmSteps)
	t0 := time.Now()
	calibKernel(calibSteps)
	c.ms = append(c.ms, millis(time.Since(t0)))
	return len(c.ms) - 1
}

// scale returns the factor that takes a raw time to reference seconds:
// calibRefMS over the mean of the samples ms[lo:hi] taken around it
// (clipped to the samples there are). An empty range gives 1.
func (c *calibrator) scale(lo, hi int) float64 {
	if c == nil {
		return 1
	}
	lo, hi = max(lo, 0), min(hi, len(c.ms))
	if lo >= hi {
		return 1
	}
	var sum float64
	for _, k := range c.ms[lo:hi] {
		sum += k
	}
	return calibRefMS * float64(hi-lo) / sum
}

// bracket returns the range of samples around a measurement taken right
// after sample i: that sample and the next.
func bracket(i int) (lo, hi int) { return i, i + 2 }

// runScale returns the factor that takes a raw time to reference seconds
// by the whole run: calibRefMS over the median of all its samples. No
// samples give 1.
func (c *calibrator) runScale() float64 {
	if c == nil || len(c.ms) == 0 {
		return 1
	}
	return calibRefMS / median(c.ms)
}

// scaling is one way to report the times of a run: in reference seconds
// (the printed metrics) or raw (printed alongside, under the "raw." prefix
// in the report). scale scales a time by the samples around it, run by
// the whole run.
type scaling struct {
	prefix string
	scale  func(lo, hi int) float64
	run    float64
}

// scalings returns the raw and the reference-seconds scalings, in that
// order; metric functions compute every time under both.
func (c *calibrator) scalings() []scaling {
	return []scaling{{"raw.", func(int, int) float64 { return 1 }, 1}, {"", c.scale, c.runScale()}}
}

// printRaw prints the kernel's samples and the raw value of every
// end-to-end time in r.
func (c *calibrator) printRaw(r report) {
	fmt.Printf("calibration: %d kernel samples, median %.3f ms; raw:", len(c.ms), median(c.ms))
	for _, s := range endToEnd {
		if v, ok := r["raw."+s.Name]; ok {
			fmt.Printf(" %s %.6g", s.Name, v)
		}
	}
	fmt.Println()
}
