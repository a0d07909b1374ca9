package bytecode_test

import (
	"testing"

	"kremlin"
	"kremlin/internal/bench"
	"kremlin/internal/bytecode"
	"kremlin/internal/ir"
	"kremlin/internal/kremlib"
)

// TestBatchTemplates checks that every call- and allocation-free block of
// the benchmark suite carries an HCPA template (so HCPA runs it batched),
// that loads and stores ride in those templates, and that exactly the
// blocks with a call or an allocation are exact-only.
func TestBatchTemplates(t *testing.T) {
	var mem int
	for _, b := range bench.All() {
		prog, err := kremlin.Compile(b.Name+".kr", b.Source)
		if err != nil {
			t.Fatal(err)
		}
		bc := prog.Bytecode()
		if err := bytecode.Verify(bc); err != nil { // also lowers every function
			t.Fatal(err)
		}
		for _, fc := range bc.Funcs {
			for _, bb := range fc.Blocks {
				callOrAlloc := false
				for _, ins := range bb.IR.Instrs {
					callOrAlloc = callOrAlloc || ins.Op == ir.OpCall || ins.Op == ir.OpAllocArray
				}
				if bb.ExactOnly != callOrAlloc {
					t.Errorf("%s/%s/%s: ExactOnly %t, has call or alloc %t", b.Name, fc.F.Name, bb.IR.Name, bb.ExactOnly, callOrAlloc)
				}
				if (bb.Tpl != nil) == callOrAlloc {
					t.Errorf("%s/%s/%s: template present %t for a block with call or alloc %t", b.Name, fc.F.Name, bb.IR.Name, bb.Tpl != nil, callOrAlloc)
				}
				if bb.Tpl == nil {
					continue
				}
				for _, ti := range bb.Tpl.Ins {
					if ti.Kind == kremlib.TplLoad || ti.Kind == kremlib.TplStore {
						mem++
					}
				}
			}
		}
	}
	if mem == 0 {
		t.Error("no load or store in any suite template")
	}
}
