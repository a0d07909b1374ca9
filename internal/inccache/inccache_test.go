package inccache_test

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"kremlin"
	"kremlin/internal/inccache"
	"kremlin/internal/profile"
)

// srcBase is a program with a mix of sealed and unsealed functions: triple
// and mix are sealed (pure, scalar); touchy reads a global; noisy uses the
// RNG; arrfn takes an array; main prints.
const srcBase = `
int shared;

int triple(int x) {
	int acc = 0;
	for (int i = 0; i < 40; i++) {
		acc = acc + x * 3 + i;
	}
	return acc;
}

int mix(int a, int b) {
	int s = triple(a);
	for (int i = 0; i < 10; i++) {
		s = s + b * i;
	}
	return s;
}

int touchy(int x) {
	return x + shared;
}

int noisy(int x) {
	return x + rand() % 7;
}

int arrfn(int v[]) {
	return v[0];
}

int main() {
	int data[4];
	data[0] = 9;
	int t = 0;
	for (int i = 0; i < 20; i++) {
		t = t + mix(i % 3, i % 5);
	}
	t = t + touchy(1) + noisy(2) + arrfn(data) + triple(7);
	print("t", t);
	return 0;
}
`

func compile(t *testing.T, src string) *kremlin.Program {
	t.Helper()
	p, err := kremlin.Compile("test.kr", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func openStore(t *testing.T, dir string) *inccache.Store {
	t.Helper()
	st, err := inccache.Open(dir)
	if err != nil {
		t.Fatalf("open cache: %v", err)
	}
	return st
}

func profileBytes(t *testing.T, prof *profile.Profile) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := prof.WriteTo(&b); err != nil {
		t.Fatalf("profile write: %v", err)
	}
	return b.Bytes()
}

func TestSealedClassification(t *testing.T) {
	p := compile(t, srcBase)
	st := openStore(t, t.TempDir())
	sealed := st.SealedFuncs(p.Regions)
	want := []string{"mix", "triple"}
	if fmt.Sprint(sealed) != fmt.Sprint(want) {
		t.Fatalf("sealed = %v, want %v", sealed, want)
	}
}

func TestKeyStability(t *testing.T) {
	p1 := compile(t, srcBase)
	p2 := compile(t, srcBase)
	st := openStore(t, t.TempDir())
	k1, k2 := st.Keys(p1.Regions), st.Keys(p2.Regions)
	for name, k := range k1 {
		if k2[name] != k {
			t.Errorf("key of %s differs across identical compiles", name)
		}
	}

	// Comment and whitespace edits change nothing.
	commented := strings.Replace(srcBase, "int triple(int x) {",
		"// a comment\nint triple(int x)   {", 1)
	k3 := st.Keys(compile(t, commented).Regions)
	for name, k := range k1 {
		if k3[name] != k {
			t.Errorf("key of %s changed on a comment/whitespace edit", name)
		}
	}

	// A body edit of triple changes triple and its (transitive) callers
	// mix and main, and nothing else.
	edited := strings.Replace(srcBase, "acc = acc + x * 3 + i;", "acc = acc + x * 4 + i;", 1)
	k4 := st.Keys(compile(t, edited).Regions)
	for _, name := range []string{"triple", "mix", "main"} {
		if k4[name] == k1[name] {
			t.Errorf("key of %s did not change after editing triple's body", name)
		}
	}
	for _, name := range []string{"touchy", "noisy", "arrfn"} {
		if k4[name] != k1[name] {
			t.Errorf("key of %s changed after an unrelated edit", name)
		}
	}

	// Renaming a leaf function keeps its own key (the name is excluded from
	// its hash) but changes its callers (the call site names it).
	renamed := strings.ReplaceAll(srcBase, "triple", "treble")
	k5 := st.Keys(compile(t, renamed).Regions)
	if k5["treble"] != k1["triple"] {
		t.Errorf("renaming triple changed its own content key")
	}
	if k5["mix"] == k1["mix"] {
		t.Errorf("renaming triple did not change mix's key")
	}
}

// runProfile profiles src against the store and returns the profile bytes
// plus the run stats.
func runProfile(t *testing.T, src string, st *inccache.Store, engine kremlin.Engine) ([]byte, uint64, uint64, inccache.Stats) {
	t.Helper()
	p := compile(t, src)
	var stats inccache.Stats
	var out bytes.Buffer
	prof, res, err := p.Profile(&kremlin.RunConfig{Out: &out, Engine: engine, Cache: st, CacheStats: &stats})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	return profileBytes(t, prof), res.Steps, res.Work, stats
}

// coldProfile profiles src without any cache.
func coldProfile(t *testing.T, src string, engine kremlin.Engine) ([]byte, uint64, uint64) {
	t.Helper()
	p := compile(t, src)
	var out bytes.Buffer
	prof, res, err := p.Profile(&kremlin.RunConfig{Out: &out, Engine: engine})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	return profileBytes(t, prof), res.Steps, res.Work
}

func TestWarmRunByteIdentical(t *testing.T) {
	for _, eng := range []kremlin.Engine{kremlin.EngineVM, kremlin.EngineTree} {
		t.Run(eng.String(), func(t *testing.T) {
			dir := t.TempDir()
			base, baseSteps, baseWork := coldProfile(t, srcBase, eng)

			st := openStore(t, dir)
			cold, coldSteps, coldWork, coldStats := runProfile(t, srcBase, st, eng)
			if !bytes.Equal(cold, base) {
				t.Fatalf("cold cached profile differs from uncached profile")
			}
			if coldSteps != baseSteps || coldWork != baseWork {
				t.Fatalf("cold cached run counters diverge: steps %d vs %d, work %d vs %d",
					coldSteps, baseSteps, coldWork, baseWork)
			}
			if coldStats.Recorded == 0 {
				t.Fatalf("cold run recorded nothing")
			}

			// Fresh store over the same directory: everything sealed should hit.
			st2 := openStore(t, dir)
			warm, warmSteps, warmWork, warmStats := runProfile(t, srcBase, st2, eng)
			if !bytes.Equal(warm, base) {
				t.Fatalf("warm profile differs from uncached profile")
			}
			if warmSteps != baseSteps || warmWork != baseWork {
				t.Fatalf("warm run counters diverge")
			}
			if warmStats.Hits == 0 {
				t.Fatalf("warm run had no cache hits: %+v", warmStats)
			}
			if warmStats.SkippedSteps == 0 {
				t.Fatalf("warm run skipped no steps")
			}
		})
	}
}

func TestCrossEngineCacheReuse(t *testing.T) {
	// Records written by the tree engine must replay on the VM and vice
	// versa, still byte-identical.
	dir := t.TempDir()
	base, baseSteps, _ := coldProfile(t, srcBase, kremlin.EngineVM)

	st := openStore(t, dir)
	_, _, _, _ = runProfile(t, srcBase, st, kremlin.EngineTree)

	st2 := openStore(t, dir)
	warm, warmSteps, _, stats := runProfile(t, srcBase, st2, kremlin.EngineVM)
	if !bytes.Equal(warm, base) {
		t.Fatalf("VM warm profile over tree-recorded cache differs")
	}
	if warmSteps != baseSteps {
		t.Fatalf("steps diverge: %d vs %d", warmSteps, baseSteps)
	}
	if stats.Hits == 0 {
		t.Fatalf("no hits replaying tree-recorded cache on the VM")
	}
}

func TestEditInvalidation(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	_, _, _, _ = runProfile(t, srcBase, st, kremlin.EngineVM)

	// Edit triple's body: warm run of the edited program must match a cold
	// run of the edited program, and must still hit for untouched contexts.
	edited := strings.Replace(srcBase, "acc = acc + x * 3 + i;", "acc = acc + x * 4 + i;", 1)
	base, baseSteps, _ := coldProfile(t, edited, kremlin.EngineVM)

	st2 := openStore(t, dir)
	warm, warmSteps, _, stats := runProfile(t, edited, st2, kremlin.EngineVM)
	if !bytes.Equal(warm, base) {
		t.Fatalf("post-edit warm profile differs from cold profile")
	}
	if warmSteps != baseSteps {
		t.Fatalf("post-edit steps diverge: %d vs %d", warmSteps, baseSteps)
	}
	// triple and mix changed key, so their cached extents are unreachable;
	// the edited run re-records them.
	if stats.Recorded == 0 {
		t.Fatalf("edited run re-recorded nothing")
	}
}

func TestWarmRepeatDeterminism(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	_, _, _, _ = runProfile(t, srcBase, st, kremlin.EngineVM)

	var first []byte
	for i := 0; i < 3; i++ {
		st2 := openStore(t, dir)
		warm, _, _, _ := runProfile(t, srcBase, st2, kremlin.EngineVM)
		if first == nil {
			first = warm
		} else if !bytes.Equal(warm, first) {
			t.Fatalf("warm run %d not byte-identical to warm run 0", i)
		}
	}
}

func TestBudgetFailureReproduces(t *testing.T) {
	// With a step budget that fails mid-way, the cached run must fail with
	// the identical error at the identical step — the cache refuses skips
	// that would jump the failure point.
	dir := t.TempDir()
	st := openStore(t, dir)
	_, fullSteps, _, _ := runProfile(t, srcBase, st, kremlin.EngineVM)
	budget := fullSteps / 2

	run := func(cache *inccache.Store) (string, uint64) {
		p := compile(t, srcBase)
		var out bytes.Buffer
		_, _, err := p.Profile(&kremlin.RunConfig{Out: &out, MaxSteps: budget, Cache: cache})
		if err == nil {
			return "", 0
		}
		return err.Error(), budget
	}
	coldMsg, _ := run(nil)
	st2 := openStore(t, dir)
	warmMsg, _ := run(st2)
	if coldMsg == "" || coldMsg != warmMsg {
		t.Fatalf("budget failure diverges:\ncold: %s\nwarm: %s", coldMsg, warmMsg)
	}
}

// runScoped profiles srcBase against st under a tenant scope.
func runScoped(t *testing.T, st *inccache.Store, scope string) ([]byte, inccache.Stats) {
	t.Helper()
	p := compile(t, srcBase)
	var stats inccache.Stats
	var out bytes.Buffer
	prof, _, err := p.Profile(&kremlin.RunConfig{Out: &out, Cache: st, CacheScope: scope, CacheStats: &stats})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	return profileBytes(t, prof), stats
}

// TestScopedKeyspaceIsolation pins the tenant-isolation contract: records
// written under one scope never hit under another scope (or unscoped), yet
// repeat traffic within a scope hits normally, and every combination stays
// byte-identical to the uncached run.
func TestScopedKeyspaceIsolation(t *testing.T) {
	base, _, _ := coldProfile(t, srcBase, kremlin.EngineVM)
	st := openStore(t, t.TempDir())

	profA, statsA := runScoped(t, st, "tenant-a")
	if !bytes.Equal(profA, base) {
		t.Fatalf("scoped cold profile differs from uncached")
	}
	if statsA.Recorded == 0 {
		t.Fatalf("scoped cold run recorded nothing")
	}

	// Same scope: warm.
	profA2, statsA2 := runScoped(t, st, "tenant-a")
	if !bytes.Equal(profA2, base) {
		t.Fatalf("scoped warm profile differs from uncached")
	}
	if statsA2.Hits == 0 {
		t.Fatalf("repeat run in the same scope had no hits: %+v", statsA2)
	}

	// Different scope: tenant-a's records must be invisible.
	profB, statsB := runScoped(t, st, "tenant-b")
	if !bytes.Equal(profB, base) {
		t.Fatalf("cross-scope profile differs from uncached")
	}
	if statsB.Hits != 0 {
		t.Fatalf("tenant-b replayed tenant-a's records: %+v", statsB)
	}
	if statsB.Recorded == 0 {
		t.Fatalf("tenant-b's cold run recorded nothing")
	}

	// Unscoped sessions live in their own (global) keyspace too.
	_, _, _, statsGlobal := runProfile(t, srcBase, st, kremlin.EngineVM)
	if statsGlobal.Hits != 0 {
		t.Fatalf("unscoped run replayed scoped records: %+v", statsGlobal)
	}

	// tenant-a is still warm after all the neighbours' traffic.
	_, statsA3 := runScoped(t, st, "tenant-a")
	if statsA3.Hits == 0 {
		t.Fatalf("tenant-a's records lost: %+v", statsA3)
	}
}

func kricFiles(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".kric") {
			n++
		}
	}
	return n
}

// TestRecordBoundEviction pins the size-bound contract: the store never
// holds more records than the bound (modulo the one key being inserted),
// evicted keys lose their disk files, the eviction counter reports the
// displacement, and a shrinking SetMaxRecords evicts retroactively.
func TestRecordBoundEviction(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	_, _, _, stats := runProfile(t, srcBase, st, kremlin.EngineVM)
	full := st.Records()
	if full < 4 {
		t.Skipf("fixture produced only %d records", full)
	}
	filesFull := kricFiles(t, dir)

	// Retroactive shrink: the store must drop to the bound and remove the
	// evicted keys' files.
	bound := 2
	st.SetMaxRecords(bound)
	if got := st.Records(); got > bound {
		t.Fatalf("after SetMaxRecords(%d): %d records held", bound, got)
	}
	if st.EvictedCount() == 0 {
		t.Fatalf("shrink evicted nothing (had %d records)", full)
	}
	if got := kricFiles(t, dir); got >= filesFull {
		t.Fatalf("eviction removed no cache files (%d before, %d after)", filesFull, got)
	}

	// Inserts against a bounded store stay bounded, and the stats surface
	// the eviction count.
	dir2 := t.TempDir()
	st2 := openStore(t, dir2)
	st2.SetMaxRecords(1)
	_, _, _, stats2 := runProfile(t, srcBase, st2, kremlin.EngineVM)
	if got := st2.Records(); got > 1 {
		t.Fatalf("bounded store holds %d records, want <= 1", got)
	}
	if stats2.Evicted == 0 {
		t.Fatalf("session stats did not surface evictions: %+v", stats2)
	}
	if stats2.Recorded < stats.Recorded {
		t.Fatalf("bound suppressed recording: %d vs %d", stats2.Recorded, stats.Recorded)
	}

	// The warm path still works under a generous bound: a bound wider than
	// the working set must not evict and must still hit.
	dir3 := t.TempDir()
	st3 := openStore(t, dir3)
	st3.SetMaxRecords(full * 2)
	_, _, _, _ = runProfile(t, srcBase, st3, kremlin.EngineVM)
	st3b := openStore(t, dir3)
	st3b.SetMaxRecords(full * 2)
	_, _, _, warm := runProfile(t, srcBase, st3b, kremlin.EngineVM)
	if warm.Hits == 0 {
		t.Fatalf("generous bound broke the warm path: %+v", warm)
	}
	if warm.Evicted != 0 {
		t.Fatalf("generous bound evicted: %+v", warm)
	}
}

func TestSessionStatsHitRate(t *testing.T) {
	s := inccache.Stats{Lookups: 10, Hits: 9}
	if got := s.HitRate(); got != 0.9 {
		t.Fatalf("HitRate = %v, want 0.9", got)
	}
	if (inccache.Stats{}).HitRate() != 0 {
		t.Fatalf("empty HitRate should be 0")
	}
}

// TestModuleMemoBounded checks the per-module analysis memo is an LRU: a
// stream of far more distinct modules than the bound leaves it at the
// bound, and a repeated module hits and misses the record cache exactly as
// with an unbounded memo (an evicted module's analysis is recomputed, not
// lost).
func TestModuleMemoBounded(t *testing.T) {
	const bound = 4
	run := func(st *inccache.Store, max int) []inccache.Stats {
		var repeated []inccache.Stats
		for i := 0; i < 40; i++ {
			// A fresh module every time, as a daemon compiling uncached
			// programs produces; every fifth is the repeated program.
			src := fmt.Sprintf("int main() { print(%d); return 0; }\n", i)
			if i%5 == 0 {
				src = srcBase
			}
			_, _, _, stats := runProfile(t, src, st, kremlin.EngineVM)
			if n := st.ModulesForTest(); n > max {
				t.Fatalf("memo holds %d modules, bound %d", n, max)
			}
			if i%5 == 0 {
				repeated = append(repeated, stats)
			}
		}
		return repeated
	}
	bounded := openStore(t, t.TempDir())
	bounded.SetMaxModulesForTest(bound)
	got := run(bounded, bound)
	if n := bounded.ModulesForTest(); n != bound {
		t.Fatalf("memo holds %d modules after 40 distinct ones, want the bound %d", n, bound)
	}
	unbounded := openStore(t, t.TempDir())
	unbounded.SetMaxModulesForTest(1 << 20)
	want := run(unbounded, 1<<20)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("repeated-module stats diverge from the unbounded memo:\nbounded   %+v\nunbounded %+v", got, want)
	}
	if want[len(want)-1].Hits == 0 {
		t.Fatalf("repeated module never hit the record cache: %+v", want)
	}
}
