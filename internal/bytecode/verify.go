package bytecode

import (
	"errors"
	"fmt"

	"kremlin/internal/ir"
	"kremlin/internal/kremlib"
)

// ErrIRShape marks IR that neither engine runs: a terminator before the
// end of its block (dangling blocks that branch included), an unknown
// builtin, or an op that cannot appear in an SSA block body. The compiler
// lowers such IR without failing, but Verify rejects it, so it never runs.
var ErrIRShape = errors.New("IR shape the engines do not run")

// operand-usage flags for the verifier.
const (
	useDst = 1 << iota
	useA
	useB
	useC
	// useDstSrc marks Dst as a *source* operand (opStIdx2 carries the
	// stored value there), so it may index the constant pool.
	useDstSrc
)

// regUse says which Ins fields index the register file for a given opcode.
// opGlobal's A and opPrintStr's A index other tables and are checked
// separately.
func regUse(op opcode) int {
	switch op {
	case opAddI, opSubI, opMulI, opDivI, opRemI, opAndI, opOrI,
		opDivIU, opRemIU,
		opAddF, opSubF, opMulF, opDivF, opCmpI, opCmpF,
		opPow, opMinI, opMaxI, opMinF, opMaxF, opDim,
		opView, opViewU, opLdIdxI, opLdIdxF, opLdIdxIU, opLdIdxFU,
		opIncJmpI, opDecJmpI:
		return useDst | useA | useB
	case opNegI, opNegF, opNot, opConvIF, opConvFI,
		opLoadI, opLoadF,
		opSqrt, opFabs, opFloor, opExp, opLog, opSin, opCos, opAbsI:
		return useDst | useA
	case opGlobal, opRand, opFrand:
		return useDst
	case opStore, opBrCmpI, opBrCmpF:
		return useA | useB
	case opStIdx, opStIdxU:
		return useA | useB | useC
	case opLdIdx2I, opLdIdx2F, opLdIdx2IU, opLdIdx2FU, opIncCmpBrI, opDecCmpBrI:
		return useDst | useA | useB | useC
	case opStIdx2, opStIdx2U:
		return useDstSrc | useA | useB | useC
	// The N-ary forms' B/C address FuncCode.IdxRegs, checked separately.
	case opLdIdxNI, opLdIdxNF, opLdIdxNIU, opLdIdxNFU:
		return useDst | useA
	case opStIdxN, opStIdxNU:
		return useDstSrc | useA
	case opSrand, opPrintValI, opPrintValF, opPrintValB, opBr, opRetVal:
		return useA
	case opNop, opPrintStr, opPrintNl, opJump, opRetVoid, opEndBlk:
		return 0
	// opCall's A is a function index, opAlloc's A an element kind; both
	// argument lists live in FuncCode.IdxRegs, checked separately.
	case opCall, opAlloc:
		return useDst
	}
	return -1 // unknown opcode
}

func isTermOp(op opcode) bool {
	switch op {
	case opBr, opBrCmpI, opBrCmpF, opIncCmpBrI, opDecCmpBrI,
		opIncJmpI, opDecJmpI, opJump, opRetVal, opRetVoid, opEndBlk:
		return true
	}
	return false
}

// Verify checks a compiled program's structural invariants — everything
// the check-free fast path assumes instead of testing at dispatch time:
// operand indices inside the register file, edge and block indices in
// range, terminators only in final position, an exact stream mapping 1:1
// onto every block body, templates referencing only shadow-register IDs
// and consuming exactly the addresses the fast stream captures. IR the
// engines do not run fails with an error wrapping ErrIRShape. It lowers
// every function first. The krfuzz oracle runs it on every generated
// program, CompileBundle on every bundle, and tests on every compiled
// fixture.
func Verify(p *Program) error {
	for _, fc := range p.Funcs {
		fc.lower()
		if err := verifyFunc(p, fc); err != nil {
			return fmt.Errorf("bytecode: func %s: %w", fc.F.Name, err)
		}
	}
	return nil
}

func verifyFunc(p *Program, fc *FuncCode) error {
	if int(fc.ConstBase) != fc.F.NumValues() {
		return fmt.Errorf("ConstBase %d != NumValues %d", fc.ConstBase, fc.F.NumValues())
	}
	if int(fc.NumRegs) != int(fc.ConstBase)+len(fc.Consts) {
		return fmt.Errorf("NumRegs %d != ConstBase %d + %d consts", fc.NumRegs, fc.ConstBase, len(fc.Consts))
	}
	if len(fc.Blocks) != len(fc.F.Blocks) {
		return fmt.Errorf("%d compiled blocks for %d IR blocks", len(fc.Blocks), len(fc.F.Blocks))
	}
	for bi := range fc.Blocks {
		b := &fc.Blocks[bi]
		if b.IR != fc.F.Blocks[bi] {
			return fmt.Errorf("block %d: IR pointer mismatch", bi)
		}
		if err := verifyBlock(p, fc, b); err != nil {
			return fmt.Errorf("block %d (%s): %w", bi, b.IR.Name, err)
		}
	}
	for _, gs := range fc.GlobalSeeds {
		if gs.Reg < 0 || gs.Reg >= fc.ConstBase {
			return fmt.Errorf("global seed register %d out of range [0,%d)", gs.Reg, fc.ConstBase)
		}
		if gs.Global < 0 || int(gs.Global) >= len(p.Mod.Globals) {
			return fmt.Errorf("global seed index %d out of range", gs.Global)
		}
	}
	for ei := range fc.Edges {
		e := &fc.Edges[ei]
		if e.Target < 0 || int(e.Target) >= len(fc.Blocks) {
			return fmt.Errorf("edge %d: target %d out of range", ei, e.Target)
		}
		if (e.NPhis > 0) != (e.PhiTpl != nil) || e.PhiTpl != nil && len(e.PhiTpl.Ins) != int(e.NPhis) {
			return fmt.Errorf("edge %d: phi template does not cover its %d phis", ei, e.NPhis)
		}
		if e.PhiTpl != nil {
			if err := verifyTpl(fc, e.PhiTpl, 0); err != nil {
				return fmt.Errorf("edge %d: phi %w", ei, err)
			}
		}
		for _, mv := range e.Moves {
			if mv.Dst < 0 || mv.Dst >= fc.ConstBase {
				return fmt.Errorf("edge %d: phi dst %d out of range", ei, mv.Dst)
			}
			if mv.Src < 0 || mv.Src >= fc.NumRegs {
				return fmt.Errorf("edge %d: phi src %d out of range", ei, mv.Src)
			}
		}
	}
	return nil
}

func verifyBlock(p *Program, fc *FuncCode, b *BBlock) error {
	body := b.IR.Instrs[phiCount(b.IR):]
	if int(b.NSteps) != len(body) {
		return fmt.Errorf("NSteps %d for %d body instructions", b.NSteps, len(body))
	}
	if b.XStart < 0 || int(b.XEnd)-int(b.XStart) != len(body) || int(b.XEnd) > len(fc.Exact) || len(fc.ExactIR) != len(fc.Exact) {
		return fmt.Errorf("exact range [%d,%d) does not map 1:1 onto %d body instructions", b.XStart, b.XEnd, len(body))
	}
	exactOnly := false
	for k, irIns := range body {
		pc := b.XStart + int32(k)
		ins := &fc.Exact[pc]
		if fc.ExactIR[pc] != irIns {
			return fmt.Errorf("exact pc %d: IR instruction mismatch", pc)
		}
		if irIns.IsTerminator() && k != len(body)-1 {
			return fmt.Errorf("%w: %v before the end of the block", ErrIRShape, irIns.Op)
		}
		if ins.Op == opNop && irIns.Op != ir.OpParam {
			if irIns.Op == ir.OpBuiltin {
				return fmt.Errorf("%w: unknown builtin %q", ErrIRShape, irIns.Builtin)
			}
			return fmt.Errorf("%w: %v in a block body", ErrIRShape, irIns.Op)
		}
		if err := verifyIns(p, fc, ins); err != nil {
			return fmt.Errorf("exact pc %d (%v): %w", pc, ins.Op, err)
		}
		if isTermOp(ins.Op) && k != len(body)-1 {
			return fmt.Errorf("exact pc %d: terminator %v before end of block", pc, ins.Op)
		}
		switch ins.Op {
		case opBrCmpI, opBrCmpF, opIncCmpBrI, opDecCmpBrI, opIncJmpI, opDecJmpI, opLdIdxI, opLdIdxF, opStIdx,
			opLdIdx2I, opLdIdx2F, opStIdx2, opLdIdxNI, opLdIdxNF, opStIdxN, opEndBlk:
			return fmt.Errorf("exact pc %d: fused opcode %v in the exact stream", pc, ins.Op)
		case opViewU, opLdIdxIU, opLdIdxFU, opStIdxU, opLdIdx2IU, opLdIdx2FU,
			opStIdx2U, opLdIdxNIU, opLdIdxNFU, opStIdxNU, opDivIU, opRemIU:
			// The exact path is the checked fallback: an unchecked
			// opcode here could silently skip a reference error.
			return fmt.Errorf("exact pc %d: unchecked opcode %v in the exact stream", pc, ins.Op)
		case opCall, opAlloc:
			exactOnly = true
		}
	}
	if exactOnly != b.ExactOnly {
		return fmt.Errorf("ExactOnly %t for a block whose calls/allocations say %t", b.ExactOnly, exactOnly)
	}
	if b.ExactOnly {
		if b.Start != -1 || b.End != -1 || b.Tpl != nil {
			return fmt.Errorf("exact-only block carries fast bytecode [%d,%d) or a template", b.Start, b.End)
		}
	} else {
		if b.Start < 0 || b.End < b.Start || int(b.End) > len(fc.Code) {
			return fmt.Errorf("code range [%d,%d) out of bounds (%d)", b.Start, b.End, len(fc.Code))
		}
		addrs := 0
		for pc := b.Start; pc < b.End; pc++ {
			ins := &fc.Code[pc]
			if err := verifyIns(p, fc, ins); err != nil {
				return fmt.Errorf("pc %d (%v): %w", pc, ins.Op, err)
			}
			if isTermOp(ins.Op) && pc != b.End-1 {
				return fmt.Errorf("pc %d: terminator %v before end of block", pc, ins.Op)
			}
			if ins.Op == opCall || ins.Op == opAlloc {
				return fmt.Errorf("pc %d: exact-only opcode %v in fast block", pc, ins.Op)
			}
			if capturesAddr(ins.Op) {
				addrs++
			}
		}
		if b.Term != termNone && b.End > b.Start && !isTermOp(fc.Code[b.End-1].Op) {
			return fmt.Errorf("terminated block ends in non-terminator %v", fc.Code[b.End-1].Op)
		}
		if b.Term == termNone && (b.End == b.Start || fc.Code[b.End-1].Op != opEndBlk) {
			return fmt.Errorf("dangling fast block does not end in endblk")
		}
		if b.Tpl == nil {
			return fmt.Errorf("fast block without an HCPA template")
		}
		if err := verifyTpl(fc, b.Tpl, addrs); err != nil {
			return err
		}
	}
	switch b.Term {
	case termBr:
		if b.Edge0 < 0 || int(b.Edge0) >= len(fc.Edges) || b.Edge1 < 0 || int(b.Edge1) >= len(fc.Edges) {
			return fmt.Errorf("branch edges %d/%d out of range (%d)", b.Edge0, b.Edge1, len(fc.Edges))
		}
	case termJump:
		if b.Edge0 < 0 || int(b.Edge0) >= len(fc.Edges) {
			return fmt.Errorf("jump edge %d out of range (%d)", b.Edge0, len(fc.Edges))
		}
	}
	return nil
}

// capturesAddr reports whether a fast-stream opcode touches one heap cell,
// whose address HCPA mode captures for the block template.
func capturesAddr(op opcode) bool {
	switch op {
	case opLoadI, opLoadF, opStore,
		opLdIdxI, opLdIdxF, opStIdx, opLdIdx2I, opLdIdx2F, opStIdx2, opLdIdxNI, opLdIdxNF, opStIdxN,
		opLdIdxIU, opLdIdxFU, opStIdxU, opLdIdx2IU, opLdIdx2FU, opStIdx2U, opLdIdxNIU, opLdIdxNFU, opStIdxNU:
		return true
	}
	return false
}

// verifyTpl checks that a template references only shadow registers and
// consumes exactly addrs captured cell addresses.
func verifyTpl(fc *FuncCode, tpl *kremlib.BlockTemplate, addrs int) error {
	for i := range tpl.Ins {
		ti := &tpl.Ins[i]
		if ti.Res >= fc.ConstBase {
			return fmt.Errorf("template ins %d: result %d is not a shadow register", i, ti.Res)
		}
		for _, a := range ti.Args {
			if a < 0 || a >= fc.ConstBase {
				return fmt.Errorf("template ins %d: arg %d is not a shadow register", i, a)
			}
		}
		if ti.Kind == kremlib.TplLoad || ti.Kind == kremlib.TplStore {
			addrs--
		}
	}
	if addrs != 0 {
		return fmt.Errorf("template consumes %d cell addresses fewer than the fast stream captures", addrs)
	}
	return nil
}

func verifyIns(p *Program, fc *FuncCode, ins *Ins) error {
	use := regUse(ins.Op)
	if use < 0 {
		return fmt.Errorf("unknown opcode %d", ins.Op)
	}
	check := func(name string, v int32, lim int32) error {
		if v < 0 || v >= lim {
			return fmt.Errorf("%s operand %d out of range [0,%d)", name, v, lim)
		}
		return nil
	}
	if use&useDst != 0 {
		// Results always land in a value slot, never the constant pool.
		if err := check("dst", ins.Dst, fc.ConstBase); err != nil {
			return err
		}
	}
	if use&useDstSrc != 0 {
		if err := check("dst(src)", ins.Dst, fc.NumRegs); err != nil {
			return err
		}
	}
	if use&useA != 0 {
		if err := check("a", ins.A, fc.NumRegs); err != nil {
			return err
		}
	}
	if use&useB != 0 {
		if err := check("b", ins.B, fc.NumRegs); err != nil {
			return err
		}
	}
	if use&useC != 0 {
		if err := check("c", ins.C, fc.NumRegs); err != nil {
			return err
		}
	}
	switch ins.Op {
	case opIncCmpBrI, opDecCmpBrI:
		if !ir.BinKind(ins.Pos).IsComparison() {
			return fmt.Errorf("latch comparison kind %d is not a comparison", ins.Pos)
		}
	case opGlobal:
		if ins.A < 0 || int(ins.A) >= len(p.Mod.Globals) {
			return fmt.Errorf("global index %d out of range", ins.A)
		}
	case opPrintStr:
		if ins.A < 0 || int(ins.A) >= len(fc.Strs) {
			return fmt.Errorf("string index %d out of range", ins.A)
		}
	case opCall, opAlloc:
		if ins.Op == opCall && (ins.A < 0 || int(ins.A) >= len(p.Funcs)) {
			return fmt.Errorf("callee index %d out of range", ins.A)
		}
		if ins.Op == opAlloc && ins.C < 1 {
			return fmt.Errorf("allocation with %d dimensions", ins.C)
		}
		if ins.C < 0 || ins.B < 0 || int(ins.B)+int(ins.C) > len(fc.IdxRegs) {
			return fmt.Errorf("arg list [%d,%d+%d) out of range [0,%d)", ins.B, ins.B, ins.C, len(fc.IdxRegs))
		}
		for _, r := range fc.IdxRegs[ins.B : ins.B+ins.C] {
			if err := check("arg", r, fc.NumRegs); err != nil {
				return err
			}
		}
	case opLdIdxNI, opLdIdxNF, opStIdxN, opLdIdxNIU, opLdIdxNFU, opStIdxNU:
		if ins.C < 3 || ins.B < 0 || int(ins.B)+int(ins.C) > len(fc.IdxRegs) {
			return fmt.Errorf("index list [%d,%d+%d) out of range [0,%d)", ins.B, ins.B, ins.C, len(fc.IdxRegs))
		}
		for _, r := range fc.IdxRegs[ins.B : ins.B+ins.C] {
			if err := check("idx", r, fc.NumRegs); err != nil {
				return err
			}
		}
	}
	return nil
}
