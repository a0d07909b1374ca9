package kremlin_test

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"kremlin"
	"kremlin/internal/ast"
	"kremlin/internal/bench"
	"kremlin/internal/bytecode"
	"kremlin/internal/instrument"
	"kremlin/internal/ir"
	"kremlin/internal/irbundle"
	"kremlin/internal/krfuzz"
	"kremlin/internal/regions"
	"kremlin/internal/source"
	"kremlin/internal/types"
)

// irSources yields every program the shape walk covers: the paper suite,
// the shipped examples, and 200 krfuzz seeds.
func irSources(t *testing.T) map[string]string {
	srcs := make(map[string]string)
	for _, b := range bench.All() {
		srcs[b.Name] = b.Source
	}
	for _, path := range []string{"examples/quickstart/quickstart.kr", "examples/gprofcompare/compare.kr"} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs[path] = string(src)
	}
	for seed := int64(1); seed <= 200; seed++ {
		srcs[fmt.Sprintf("krfuzz-%d", seed)] = krfuzz.Generate(seed, krfuzz.Default()).Source()
	}
	return srcs
}

// TestFrontEndEmitsOnlyRunnableShapes walks the IR the front end produces
// (optimizer off and on) and asserts that none of the shapes the verifier
// rejects — mid-block terminators, unknown builtins, non-body ops in a
// body, dangling blocks that branch — ever occur, so rejecting them costs
// no program.
func TestFrontEndEmitsOnlyRunnableShapes(t *testing.T) {
	for name, src := range irSources(t) {
		for _, optimize := range []bool{false, true} {
			prog, err := kremlin.CompileWith(name, src, kremlin.CompileOptions{Optimize: optimize})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, f := range prog.Module.Funcs {
				for _, blk := range f.Blocks {
					for i, ins := range blk.Instrs {
						if ins.IsTerminator() && i != len(blk.Instrs)-1 {
							t.Errorf("%s (opt %t): %s/%s: %v before the end of the block", name, optimize, f.Name, blk.Name, ins.Op)
						}
					}
				}
			}
			if err := bytecode.Verify(prog.Bytecode()); err != nil {
				t.Errorf("%s (opt %t): %v", name, optimize, err)
			}
		}
	}
}

// Hand-assembly helpers for IR the front end never emits.
func newIRMain() (*ir.Func, *ir.Module) {
	f := &ir.Func{Name: "main", Ret: ast.Void}
	mod := &ir.Module{Name: "t.kr", Funcs: []*ir.Func{f}, ByName: map[string]*ir.Func{"main": f}}
	f.Module = mod
	return f, mod
}

func emitIR(b *ir.Block, ins *ir.Instr) *ir.Instr {
	ins.Block = b
	ins.ID = b.Func.NewValueID()
	ins.BreakArg = -1
	b.Instrs = append(b.Instrs, ins)
	return ins
}

func printnlIR(b *ir.Block) {
	emitIR(b, &ir.Instr{Op: ir.OpBuiltin, Builtin: "printnl", Typ: types.Scalar(ast.Void)})
}

func retIR(b *ir.Block) { emitIR(b, &ir.Instr{Op: ir.OpRet}) }

func jumpIR(b, to *ir.Block) {
	emitIR(b, &ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{to}})
	ir.AddEdge(b, to)
}

// TestVerifyRejectsIRShapes hand-builds the shapes no engine runs and
// checks that bytecode.Verify rejects each with ErrIRShape and that
// CompileBundle refuses each as a KRIB1 bundle with a *CompileError.
func TestVerifyRejectsIRShapes(t *testing.T) {
	cases := map[string]func() *ir.Module{
		"mid-block-br": func() *ir.Module {
			f, mod := newIRMain()
			entry, then, els := f.NewBlock("entry"), f.NewBlock("then"), f.NewBlock("else")
			emitIR(entry, &ir.Instr{Op: ir.OpBr, Args: []ir.Value{&ir.ConstBool{V: true}}, Targets: []*ir.Block{then, els}})
			ir.AddEdge(entry, then)
			ir.AddEdge(entry, els)
			printnlIR(entry)
			retIR(entry)
			retIR(then)
			retIR(els)
			return mod
		},
		"unknown-builtin": func() *ir.Module {
			f, mod := newIRMain()
			entry := f.NewBlock("entry")
			emitIR(entry, &ir.Instr{Op: ir.OpBuiltin, Builtin: "frobnicate", Typ: types.Scalar(ast.Void)})
			retIR(entry)
			return mod
		},
		"dangling-branch": func() *ir.Module {
			f, mod := newIRMain()
			entry, next := f.NewBlock("entry"), f.NewBlock("next")
			jumpIR(entry, next)
			printnlIR(entry)
			retIR(next)
			return mod
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			mod := build()
			file := source.NewFile("t.kr", "void main() {}\n")
			regs := regions.Analyze(mod, file)
			p := bytecode.Compile(mod, regs, instrument.Build(regs), nil)
			if err := bytecode.Verify(p); !errors.Is(err, bytecode.ErrIRShape) {
				t.Errorf("Verify: got %v, want an ErrIRShape rejection", err)
			}
			prog, err := kremlin.CompileBundle(irbundle.Encode(file, build()))
			var cerr *kremlin.CompileError
			if prog != nil || !errors.As(err, &cerr) {
				t.Errorf("CompileBundle: got program %v, error %v; want a *CompileError", prog != nil, err)
			}
		})
	}
}
