package kremlin_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"kremlin"
	"kremlin/internal/bench"
	"kremlin/internal/depcheck"
	"kremlin/internal/regions"
)

// traceDeps profiles src with the loop-carried dependence tracer on and
// returns the flagged region IDs plus the compiled program.
func traceDeps(t *testing.T, src string) (*kremlin.Program, map[int]bool) {
	t.Helper()
	prog, err := kremlin.Compile("trace.kr", src)
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := prog.Profile(&kremlin.RunConfig{Out: &strings.Builder{}, TraceDeps: true})
	if err != nil {
		t.Fatal(err)
	}
	carried := make(map[int]bool)
	for _, id := range res.CarriedDeps {
		carried[id] = true
	}
	return prog, carried
}

// loopID returns the ID of the loop region starting at the given source line.
func loopID(t *testing.T, prog *kremlin.Program, line int) int {
	t.Helper()
	for _, r := range prog.Regions.Regions {
		if r.Kind == regions.LoopRegion && r.StartLine == line {
			return r.ID
		}
	}
	t.Fatalf("no loop region at line %d", line)
	return -1
}

func TestDepTraceFlagsCarriedLoop(t *testing.T) {
	prog, carried := traceDeps(t, `
int a[64];
void main() {
    a[0] = 1;
    for (int i = 1; i < 64; i++) {
        a[i] = a[i-1] + 1;
    }
    print(a[63]);
}
`)
	if id := loopID(t, prog, 5); !carried[id] {
		t.Errorf("loop with a[i] = a[i-1] not flagged by the dependence tracer (carried=%v)", carried)
	}
}

func TestDepTraceQuietOnDOALL(t *testing.T) {
	prog, carried := traceDeps(t, `
int a[64];
int b[64];
void main() {
    for (int i = 0; i < 64; i++) { b[i] = i; }
    for (int i = 0; i < 64; i++) {
        a[i] = b[i] * 2;
    }
    print(a[63]);
}
`)
	if len(carried) != 0 {
		t.Errorf("DOALL loops flagged: %v", carried)
	}
	// Both loops must also be statically proven, so the fuzz oracle's
	// soundness check exercises the interesting direction on this shape.
	for _, line := range []int{5, 6} {
		id := loopID(t, prog, line)
		if rep := prog.Vet.ByRegion[id]; rep.Verdict != depcheck.Parallel {
			t.Errorf("loop at line %d: verdict %v, want parallel", line, rep.Verdict)
		}
	}
}

func TestDepTraceQuietOnReduction(t *testing.T) {
	_, carried := traceDeps(t, `
int a[64];
void main() {
    int s = 0;
    for (int i = 0; i < 64; i++) {
        s = s + a[i];
    }
    print(s);
}
`)
	if len(carried) != 0 {
		t.Errorf("reduction loop flagged: %v", carried)
	}
}

func TestDepTraceFlagsMemoryRecurrenceThroughCall(t *testing.T) {
	// The dependence crosses iterations through a callee's store, so the
	// tracer must see it from inside the call frame.
	prog, carried := traceDeps(t, `
int g;
void bump(int x) {
    g = g + x * x;
}
void main() {
    g = 0;
    for (int i = 0; i < 16; i++) {
        bump(i);
    }
    print(g);
}
`)
	if id := loopID(t, prog, 8); !carried[id] {
		t.Errorf("loop with carried dependence through call not flagged (carried=%v)", carried)
	}
}

// traceRun profiles prog on engine with the loop-carried dependence tracer
// on, returning the flagged loop regions and the profile bytes.
func traceRun(t *testing.T, prog *kremlin.Program, engine kremlin.Engine) ([]int, []byte) {
	t.Helper()
	prof, res, err := prog.Profile(&kremlin.RunConfig{Out: io.Discard, TraceDeps: true, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if _, err := prof.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return res.CarriedDeps, b.Bytes()
}

// TestTraceDepsParity checks that the VM's batched templates report
// exactly the tree engine's carried-dependence sets on the suite, and that
// the broken reads of reductions — a reduction phi's accumulator, a
// reduction-marked load's memory slot — stay unreported on both engines.
func TestTraceDepsParity(t *testing.T) {
	srcs := map[string]string{
		"scalar-reduction": `
int a[64];
void main() {
	int s = 0;
	for (int i = 0; i < 64; i++) { s = s + a[i]; }
	print(s);
}`,
		"array-reduction": `
int a[8];
int b[64];
void main() {
	for (int i = 0; i < 64; i++) { b[i] = i; }
	for (int i = 0; i < 64; i++) { a[3] += b[i]; }
	print(a[3]);
}`,
	}
	for _, b := range bench.All() {
		srcs[b.Name] = b.Source
	}
	for name, src := range srcs {
		prog, err := kremlin.Compile(name+".kr", src)
		if err != nil {
			t.Fatal(err)
		}
		vdeps, vprof := traceRun(t, prog, kremlin.EngineVM)
		tdeps, tprof := traceRun(t, prog, kremlin.EngineTree)
		if fmt.Sprint(vdeps) != fmt.Sprint(tdeps) {
			t.Errorf("%s: carried deps vm %v, tree %v", name, vdeps, tdeps)
		}
		if !bytes.Equal(vprof, tprof) {
			t.Errorf("%s: traced profiles differ", name)
		}
		if strings.HasSuffix(name, "-reduction") && len(vdeps) != 0 {
			t.Errorf("%s: reduction loop reported as carried: %v", name, vdeps)
		}
	}
}
