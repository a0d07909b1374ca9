package bytecode

import (
	"math"

	"kremlin/internal/absint"
	"kremlin/internal/ast"
	"kremlin/internal/instrument"
	"kremlin/internal/ir"
	"kremlin/internal/kremlib"
	"kremlin/internal/regions"
)

// Compile prepares a module for the VM. Each function is lowered to flat
// bytecode on its first call (or by Verify), so a run lowers only what it
// executes — an incremental re-profile that replays most calls from the
// cache lowers few functions. prog and instr are the region analysis and
// instrumentation tables the module was compiled with (the same ones the
// tree engine consults at run time); edges, control pushes, and region
// events are resolved against them once, at lowering. facts, when non-nil,
// supplies the abstract interpreter's proofs: views proven in bounds and
// divisors proven nonzero compile to unchecked opcode variants and open
// fusion windows that faultable instructions would otherwise close. A nil
// facts (-absint=off) compiles fully checked code; profiles, plans, and
// program output are identical either way — only the dispatch cost of the
// proven checks differs.
func Compile(mod *ir.Module, prog *regions.Program, instr *instrument.Module, facts *absint.Facts) *Program {
	p := &Program{Mod: mod, Prog: prog, ByFunc: make(map[*ir.Func]*FuncCode, len(mod.Funcs))}
	src := &lowering{instr: instr, facts: facts, fidx: make(map[*ir.Func]int32, len(mod.Funcs))}
	for i, f := range mod.Funcs {
		src.fidx[f] = int32(i)
	}
	for _, f := range mod.Funcs {
		fc := &FuncCode{F: f, Root: prog.PerFunc[f].Root, src: src}
		p.Funcs = append(p.Funcs, fc)
		p.ByFunc[f] = fc
	}
	return p
}

// lowering is what lowering any one function of a program reads; it is
// never written after Compile, so functions may lower concurrently.
type lowering struct {
	instr *instrument.Module
	facts *absint.Facts
	fidx  map[*ir.Func]int32 // function -> Program.Funcs index (opCall)
}

// lower compiles fc on first use; safe for concurrent callers.
func (fc *FuncCode) lower() {
	fc.once.Do(func() { compileFunc(fc) })
}

// constKey dedups pool constants by kind and bit pattern.
type constKey struct {
	kind uint8 // 0 int, 1 float, 2 bool
	bits uint64
}

type fnCompiler struct {
	f        *ir.Func
	fc       *FuncCode
	fi       *instrument.FuncInstr
	idxOf    map[*ir.Block]int32
	uses     []int32 // value ID -> static reference count
	constIdx map[constKey]int32
	fidx     map[*ir.Func]int32 // function -> Program.Funcs index (opCall)
	// facts are the absint proofs consulted for unchecked emission; nil
	// disables elimination. inExact suppresses them while emitExact runs
	// (and routes push to the exact stream): the exact path must stay fully
	// checked so faulting programs report the reference error at the
	// reference position.
	facts   *absint.Facts
	inExact bool
	// tpls, tplIns and tplArgs are slabs backing the function's templates,
	// their entries and the entries' argument lists (a few allocations per
	// function instead of several per block). tplAt maps a register to 1 +
	// the tplIns index of the entry writing it in the template being built
	// (0 outside it).
	tpls    []kremlib.BlockTemplate
	tplIns  []kremlib.TplIns
	tplArgs []int32
	tplAt   []int32
	// escapes marks values read outside their own block or by a phi.
	escapes []bool
}

// provenView reports whether the view's index was proven within its
// dimension on every execution (implies the operand has rank, so both the
// rank and bounds checks may be skipped).
func (c *fnCompiler) provenView(ins *ir.Instr) bool {
	return c.facts != nil && !c.inExact && c.facts.InBounds(ins)
}

// provenDiv reports whether an integer division/modulo's divisor was
// proven nonzero on every execution.
func (c *fnCompiler) provenDiv(ins *ir.Instr) bool {
	return c.facts != nil && !c.inExact && c.facts.NonZeroDivisor(ins)
}

func compileFunc(fc *FuncCode) {
	f := fc.F
	fc.ConstBase = int32(f.NumValues())
	c := &fnCompiler{
		f:        f,
		fidx:     fc.src.fidx,
		facts:    fc.src.facts,
		fc:       fc,
		fi:       fc.src.instr.PerFunc[f],
		idxOf:    make(map[*ir.Block]int32, len(f.Blocks)),
		uses:     make([]int32, f.NumValues()),
		tplAt:    make([]int32, f.NumValues()),
		escapes:  make([]bool, f.NumValues()),
		constIdx: make(map[constKey]int32),
	}
	// Size every stream and slab once: a block has at most two edges, a
	// phi one argument per edge.
	nIns, nArgs := 0, 0
	defBlk := make([]int32, f.NumValues())
	for i, b := range f.Blocks {
		c.idxOf[b] = int32(i)
		for _, ins := range b.Instrs {
			defBlk[ins.ID] = int32(i)
		}
	}
	for i, b := range f.Blocks {
		nPhiArgs := phiCount(b) * len(b.Preds)
		nIns += len(b.Instrs) + nPhiArgs
		nArgs += nPhiArgs
		for _, ins := range b.Instrs {
			nArgs += len(ins.Args)
			for _, a := range ins.Args {
				if ai, ok := a.(*ir.Instr); ok {
					c.uses[ai.ID]++
					if ins.Op == ir.OpPhi || defBlk[ai.ID] != int32(i) {
						c.escapes[ai.ID] = true
					}
				}
			}
		}
	}
	nb := len(f.Blocks)
	c.fc.Code = make([]Ins, 0, nIns+nb)
	c.fc.Exact = make([]Ins, 0, nIns)
	c.fc.ExactIR = make([]*ir.Instr, 0, nIns)
	c.fc.Edges = make([]Edge, 0, 2*nb)
	c.tpls = make([]kremlib.BlockTemplate, 0, 3*nb)
	c.tplIns = make([]kremlib.TplIns, 0, nIns)
	c.tplArgs = make([]int32, 0, nArgs)
	c.fc.Blocks = make([]BBlock, nb)
	for i, b := range f.Blocks {
		c.compileBlock(int32(i), b)
	}
	c.fc.NumRegs = c.fc.ConstBase + int32(len(c.fc.Consts))
}

// opnd resolves an IR operand to a register-file index: instruction
// results keep their dense value IDs; constants are interned into the
// pool, which occupies the top of the register file.
func (c *fnCompiler) opnd(v ir.Value) int32 {
	switch v := v.(type) {
	case *ir.Instr:
		return int32(v.ID)
	case *ir.ConstInt:
		return c.constReg(constKey{0, uint64(v.V)}, val{i: v.V})
	case *ir.ConstFloat:
		return c.constReg(constKey{1, math.Float64bits(v.V)}, val{f: v.V})
	case *ir.ConstBool:
		var iv int64
		if v.V {
			iv = 1
		}
		return c.constReg(constKey{2, uint64(iv)}, val{i: iv})
	}
	return c.constReg(constKey{0, 0}, val{})
}

func (c *fnCompiler) constReg(k constKey, v val) int32 {
	if idx, ok := c.constIdx[k]; ok {
		return c.fc.ConstBase + idx
	}
	idx := int32(len(c.fc.Consts))
	c.fc.Consts = append(c.fc.Consts, v)
	c.constIdx[k] = idx
	return c.fc.ConstBase + idx
}

// phiCount returns the number of leading phis of blk.
func phiCount(blk *ir.Block) int {
	n := 0
	for n < len(blk.Instrs) && blk.Instrs[n].Op == ir.OpPhi {
		n++
	}
	return n
}

func (c *fnCompiler) compileBlock(bi int32, blk *ir.Block) {
	bb := &c.fc.Blocks[bi]
	bb.IR = blk
	bb.Start, bb.End = -1, -1
	body := blk.Instrs[phiCount(blk):]
	for _, ins := range body {
		bb.NSteps++
		bb.LatSum += ins.Latency()
		// Calls perturb the step counter mid-block; allocations can fail
		// the heap cap mid-block. Both must check per instruction.
		if ins.Op == ir.OpCall || ins.Op == ir.OpAllocArray {
			bb.ExactOnly = true
		}
	}

	// Edges (the terminator's targets, in then/else order).
	switch t := blk.Terminator(); {
	case t == nil:
		bb.Term = termNone
	case t.Op == ir.OpBr:
		bb.Term = termBr
		bb.Edge0 = c.addEdge(blk, t.Targets[0])
		bb.Edge1 = c.addEdge(blk, t.Targets[1])
	case t.Op == ir.OpJump:
		bb.Term = termJump
		bb.Edge0 = c.addEdge(blk, t.Targets[0])
	default:
		bb.Term = termRet
	}
	if popAt, ok := c.fi.PopAt[blk]; ok && popAt != nil && bb.Term == termBr {
		bb.HasPush = true
		bb.PopAt = popAt
	}

	c.emitExact(bb, body)
	if !bb.ExactOnly {
		c.emit(bb, body)
		bb.Tpl = c.template(body, -1)
	}
}

// addEdge precompiles the CFG edge blk→to: target index, phi moves and
// phi template, predecessor index, and region events.
func (c *fnCompiler) addEdge(blk, to *ir.Block) int32 {
	e := Edge{Target: c.idxOf[to], PredIdx: -1}
	for i, p := range to.Preds {
		if p == blk {
			e.PredIdx = int32(i)
			break
		}
	}
	phis := to.Instrs[:phiCount(to)]
	e.NPhis = uint32(len(phis))
	for _, ins := range phis {
		if e.PredIdx >= 0 && int(e.PredIdx) < len(ins.Args) {
			e.Moves = append(e.Moves, Move{Dst: int32(ins.ID), Src: c.opnd(ins.Args[e.PredIdx])})
		}
	}
	if len(phis) > 0 {
		e.PhiTpl = c.template(phis, int(e.PredIdx))
	}
	ev := c.fi.EdgeEvents(blk, to)
	e.NExit = int32(len(ev.Exit))
	e.Iterate = ev.Iterate
	e.Enter = ev.Enter
	idx := int32(len(c.fc.Edges))
	c.fc.Edges = append(c.fc.Edges, e)
	return idx
}

// template builds the batched HCPA effect of a block body or of an edge's
// phis (selecting incoming argument predIdx): one entry per instruction
// whose Step has an effect, with kremlib.Step's per-opcode cases resolved
// here. Argument vectors resolve to register IDs; constants and broken
// (induction/reduction) dependencies are dropped.
func (c *fnCompiler) template(instrs []*ir.Instr, predIdx int) *kremlib.BlockTemplate {
	c.tpls = append(c.tpls, kremlib.BlockTemplate{}) // presized: never moves
	tpl := &c.tpls[len(c.tpls)-1]
	first := len(c.tplIns)
	for _, ins := range instrs {
		if ins.Op == ir.OpParam || ins.Op == ir.OpJump || c.baseOnly(ins) {
			// The interpreter never Steps params. A jump folds nothing and
			// adds no latency: its time is the control time, which can
			// neither raise the critical path nor reach any register.
			continue
		}
		ti := kremlib.TplIns{Res: -1, Lat: ins.Latency(), Covered: ins.Latency() == 0}
		args, brk := ins.Args, ins.BreakArg
		switch ins.Op {
		case ir.OpPhi:
			// An induction phi's carried dependence is broken: only the
			// control time remains.
			args, brk = nil, -1
			if !ins.Induction && predIdx >= 0 && predIdx < len(ins.Args) {
				args = ins.Args[predIdx : predIdx+1]
			}
			ti.Untraced = ins.Reduction
		case ir.OpLoad:
			// The address computation is never a broken dependence.
			args, brk = ins.Args[:1], -1
			ti.Kind = kremlib.TplLoad
			ti.Untraced = ins.Reduction
		case ir.OpStore:
			ti.Kind = kremlib.TplStore
		case ir.OpRet:
			ti.Kind = kremlib.TplRet
		case ir.OpBuiltin:
			switch ins.Builtin {
			case "rand", "frand", "srand":
				ti.Kind = kremlib.TplRand
			case "printval", "printstr", "printnl":
				ti.Kind = kremlib.TplPrint
			}
		}
		if ins.HasResult() && ti.Kind != kremlib.TplPrint {
			ti.Res = int32(ins.ID)
		}
		start := len(c.tplArgs)
		for i, a := range args {
			if i == brk {
				continue
			}
			ai, ok := a.(*ir.Instr)
			if !ok || c.baseOnly(ai) {
				continue
			}
			c.tplArgs = append(c.tplArgs, int32(ai.ID))
			if ai.ID == ins.ID {
				// StepBlock computes results in place: a self-reference (a
				// phi reading itself) must be the first fold.
				n := len(c.tplArgs) - 1
				c.tplArgs[start], c.tplArgs[n] = c.tplArgs[n], c.tplArgs[start]
			}
			// A result a later entry folds needs no critical-path update
			// of its own.
			if j := c.tplAt[ai.ID]; j > 0 {
				c.tplIns[j-1].Covered = true
			}
		}
		if n := len(c.tplArgs); n > start {
			ti.Args = c.tplArgs[start:n:n]
		}
		tpl.TotalLat += ti.Lat
		c.tplIns = append(c.tplIns, ti)
		if ti.Res >= 0 {
			c.tplAt[ti.Res] = int32(len(c.tplIns))
		}
	}
	n := len(c.tplIns)
	tpl.Ins = c.tplIns[first:n:n]
	for _, ti := range tpl.Ins {
		if ti.Res >= 0 {
			c.tplAt[ti.Res] = 0
		}
	}
	return tpl
}

// baseOnly reports whether v's shadow time is the control baseline of
// every template that reads it, so templates neither compute nor fold it:
// a global's time is the control time at its Step, and when every reader
// sits in the global's own block body (no phi), each reader's fold starts
// from that same baseline.
func (c *fnCompiler) baseOnly(v *ir.Instr) bool {
	return v.Op == ir.OpGlobal && !c.escapes[v.ID]
}

// transparent reports whether an instruction may sit between a fused view
// and its load/store without breaking exact engine equivalence. Fusing
// moves the view's bounds check later in the block; that is unobservable
// as long as nothing in between can fault (the wrong error would win) or
// write to the output stream (the tree engine would have stopped first).
// Everything else — register arithmetic, heap reads, even RNG draws — is
// invisible once a runtime error aborts the run (errors return no result
// and no partial state). Instructions the abstract interpreter proved
// fault-free — in-bounds views, nonzero divisors — are transparent too:
// they cannot produce the error that would win.
func (c *fnCompiler) transparent(ins *ir.Instr) bool {
	switch ins.Op {
	case ir.OpBin:
		// Integer division and modulo fault on zero; all other binary ops
		// (including float division) are total.
		if ins.Bin == ir.BinDiv || ins.Bin == ir.BinRem {
			return ins.Args[0].Type().Elem == ast.Float || c.provenDiv(ins)
		}
		return true
	case ir.OpNeg, ir.OpNot, ir.OpConvert, ir.OpGlobal, ir.OpLoad, ir.OpParam:
		return true
	case ir.OpView:
		return c.provenView(ins)
	case ir.OpBuiltin:
		switch ins.Builtin {
		case "sqrt", "fabs", "floor", "exp", "log", "sin", "cos", "pow",
			"abs", "min", "max", "rand", "frand", "srand":
			return true
		}
		// dim faults; prints are observable output; anything unknown
		// fails verification regardless.
		return false
	}
	// Unproven views fault, stores/terminators/calls close the window.
	return false
}

// fusion decides the block's superinstruction groups: a comparison feeding
// the block's branch (single use, adjacent) fuses into a compare-branch,
// returned in fuse; a single-use view chain feeding a load/store through
// transparent windows fuses into one indexed access of the chain's rank,
// returned in chains (views outermost-first). Fused producers are elided
// from the stream — their registers are never read (single use), and the
// transparent-window rule preserves the exact error ordering relative to
// observable effects. A chain may stop short of the root array (e.g. an
// index expression that can fault between two views closes the window);
// the remaining outer views then emit normally and the fused op indexes
// the innermost surviving view's register.
func (c *fnCompiler) fusion(body []*ir.Instr) (fuse map[*ir.Instr]*ir.Instr, chains map[*ir.Instr][]*ir.Instr, latch map[*ir.Instr]*ir.Instr) {
	fuse = make(map[*ir.Instr]*ir.Instr)
	chains = make(map[*ir.Instr][]*ir.Instr)
	latch = make(map[*ir.Instr]*ir.Instr)
	single := func(ins *ir.Instr) bool { return c.uses[ins.ID] == 1 }
	pos := make(map[*ir.Instr]int, len(body))
	for i, ins := range body {
		pos[ins] = i
	}
	// reaches reports whether the producer at index pi may fuse into the
	// consumer at index ci: everything strictly between must be
	// transparent.
	reaches := func(pi, ci int) bool {
		for k := pi + 1; k < ci; k++ {
			if !c.transparent(body[k]) {
				return false
			}
		}
		return true
	}
	for i := 1; i < len(body); i++ {
		ins, prev := body[i], body[i-1]
		switch ins.Op {
		case ir.OpBr:
			cmp, ok := ins.Args[0].(*ir.Instr)
			if !ok || cmp != prev || cmp.Op != ir.OpBin || !cmp.Bin.IsComparison() || !single(cmp) {
				continue
			}
			fuse[ins] = cmp
			// Counted-loop latch: the comparison's left operand is an
			// integer add/sub immediately before it. Strict adjacency is
			// required — the counter is multi-use (the back-edge phi reads
			// it), so no instruction may sit between its old and new
			// position and observe a stale register.
			if i < 2 {
				continue
			}
			step, ok := cmp.Args[0].(*ir.Instr)
			if ok && step == body[i-2] && step.Op == ir.OpBin &&
				(step.Bin == ir.BinAdd || step.Bin == ir.BinSub) &&
				step.Args[0].Type().Elem != ast.Float {
				latch[ins] = step
			}
		case ir.OpJump:
			// Back-edge/accumulator tail: an integer add/sub immediately
			// before the jump folds into it. Adjacency keeps it exact (the
			// result register is still written; nothing sits between).
			if prev.Op == ir.OpBin && (prev.Bin == ir.BinAdd || prev.Bin == ir.BinSub) &&
				prev.Args[0].Type().Elem != ast.Float {
				latch[ins] = prev
			}
		case ir.OpLoad, ir.OpStore:
			view, ok := ins.Args[0].(*ir.Instr)
			if !ok || view.Op != ir.OpView || !single(view) || view.Typ.Dims != 0 {
				continue
			}
			vi, inBlock := pos[view]
			if !inBlock || !reaches(vi, i) {
				continue
			}
			// Walk outward through single-use views in the same block,
			// each reachable through a transparent window. Index chains
			// report every bounds error at the root expression, so all
			// links share one source position — required, since the fused
			// op carries a single Pos slot. A chain of views proven in
			// bounds can never report an error at all, so proven links may
			// span differing positions (the chain then compiles to an
			// unchecked opcode; see emitIns).
			chain := []*ir.Instr{view}
			cur, curIdx := view, vi
			allProven := c.provenView(view)
			for {
				src, ok := cur.Args[0].(*ir.Instr)
				if !ok || src.Op != ir.OpView || !single(src) {
					break
				}
				srcProven := c.provenView(src)
				if src.Pos != cur.Pos && !(allProven && srcProven) {
					break
				}
				si, inB := pos[src]
				if !inB || !reaches(si, curIdx) {
					break
				}
				chain = append(chain, src)
				cur, curIdx = src, si
				allProven = allProven && srcProven
			}
			// Reverse to outermost-first: index emission order.
			for l, r := 0, len(chain)-1; l < r; l, r = l+1, r-1 {
				chain[l], chain[r] = chain[r], chain[l]
			}
			chains[ins] = chain
		}
	}
	return fuse, chains, latch
}

func (c *fnCompiler) emit(bb *BBlock, body []*ir.Instr) {
	fuse, chains, latch := c.fusion(body)
	elided := make(map[*ir.Instr]bool, len(fuse)+len(chains)+len(latch))
	for _, producer := range fuse {
		elided[producer] = true
	}
	for _, chain := range chains {
		for _, v := range chain {
			elided[v] = true
		}
	}
	for _, step := range latch {
		elided[step] = true
	}
	bb.Start = int32(len(c.fc.Code))
	for _, ins := range body {
		if elided[ins] || ins.Op == ir.OpParam {
			continue
		}
		if ins.Op == ir.OpGlobal {
			// Global descriptors are fixed after startup allocation: seed
			// the result register once per call instead of reloading it on
			// every pass through the block.
			c.fc.GlobalSeeds = append(c.fc.GlobalSeeds,
				GlobalSeed{Reg: int32(ins.ID), Global: int32(ins.Global.Index)})
			continue
		}
		c.emitIns(ins, fuse[ins], chains[ins], latch[ins])
	}
	if bb.Term == termNone {
		// Close dangling blocks with a sentinel so the dispatch loop never
		// needs an end-of-block bounds check (terminated blocks end in a
		// terminator opcode already).
		c.push(Ins{Op: opEndBlk})
	}
	bb.End = int32(len(c.fc.Code))
}

// push appends to the stream being emitted: the fused fast stream, or the
// exact stream while emitExact runs.
func (c *fnCompiler) push(i Ins) {
	if c.inExact {
		c.fc.Exact = append(c.fc.Exact, i)
		return
	}
	c.fc.Code = append(c.fc.Code, i)
}

// emitExact lowers a block body to unfused 1:1 bytecode in FuncCode.Exact
// — one instruction per IR instruction, calls and allocations included —
// with the IR instruction recorded alongside in FuncCode.ExactIR. execExact
// replays it with the reference engine's exact per-instruction budget,
// liveness, work, and (in HCPA) Step accounting. Params hold their slot
// with a nop, as does IR the verifier rejects (unknown builtins and ops).
func (c *fnCompiler) emitExact(bb *BBlock, body []*ir.Instr) {
	c.inExact = true
	defer func() { c.inExact = false }()
	bb.XStart = int32(len(c.fc.Exact))
	for _, ins := range body {
		n := len(c.fc.Exact)
		switch ins.Op {
		case ir.OpParam:
		case ir.OpCall:
			c.push(Ins{Op: opCall, Dst: int32(ins.ID), A: c.fidx[ins.Callee],
				B: c.argList(ins.Args), C: int32(len(ins.Args)), Pos: int32(ins.Pos)})
		case ir.OpAllocArray:
			c.push(Ins{Op: opAlloc, Dst: int32(ins.ID), A: int32(ins.Typ.Elem),
				B: c.argList(ins.Args), C: int32(len(ins.Args)), Pos: int32(ins.Pos)})
		default:
			c.emitIns(ins, nil, nil, nil)
		}
		if len(c.fc.Exact) == n {
			c.push(Ins{Op: opNop})
		}
		c.fc.ExactIR = append(c.fc.ExactIR, ins)
	}
	bb.XEnd = int32(len(c.fc.Exact))
}

// argList interns an opCall/opAlloc operand list into FuncCode.IdxRegs
// and returns the slice base.
func (c *fnCompiler) argList(args []ir.Value) int32 {
	base := int32(len(c.fc.IdxRegs))
	for _, a := range args {
		c.fc.IdxRegs = append(c.fc.IdxRegs, c.opnd(a))
	}
	return base
}

// idxList interns a rank-3+ chain's index registers and returns the slice
// base in FuncCode.IdxRegs.
func (c *fnCompiler) idxList(chain []*ir.Instr) int32 {
	base := int32(len(c.fc.IdxRegs))
	for _, v := range chain {
		c.fc.IdxRegs = append(c.fc.IdxRegs, c.opnd(v.Args[1]))
	}
	return base
}

func (c *fnCompiler) emitIns(ins *ir.Instr, fused *ir.Instr, chain []*ir.Instr, latch *ir.Instr) {
	dst := int32(ins.ID)
	pos := int32(ins.Pos)
	switch ins.Op {
	case ir.OpBin:
		isFloat := ins.Args[0].Type().Elem == ast.Float
		a, b := c.opnd(ins.Args[0]), c.opnd(ins.Args[1])
		var op opcode
		switch ins.Bin {
		case ir.BinAdd:
			op = pick(isFloat, opAddF, opAddI)
		case ir.BinSub:
			op = pick(isFloat, opSubF, opSubI)
		case ir.BinMul:
			op = pick(isFloat, opMulF, opMulI)
		case ir.BinDiv:
			op = pick(isFloat, opDivF, opDivI)
			if !isFloat && c.provenDiv(ins) {
				op = opDivIU
			}
		case ir.BinRem:
			op = pick(c.provenDiv(ins), opRemIU, opRemI)
		case ir.BinAnd:
			op = opAndI
		case ir.BinOr:
			op = opOrI
		default: // comparison
			c.push(Ins{Op: pick(isFloat, opCmpF, opCmpI), Dst: dst, A: a, B: b, C: int32(ins.Bin), Pos: pos})
			return
		}
		c.push(Ins{Op: op, Dst: dst, A: a, B: b, Pos: pos})
	case ir.OpNeg:
		c.push(Ins{Op: pick(ins.Typ.Elem == ast.Float, opNegF, opNegI), Dst: dst, A: c.opnd(ins.Args[0])})
	case ir.OpNot:
		c.push(Ins{Op: opNot, Dst: dst, A: c.opnd(ins.Args[0])})
	case ir.OpConvert:
		c.push(Ins{Op: pick(ins.Typ.Elem == ast.Float, opConvIF, opConvFI), Dst: dst, A: c.opnd(ins.Args[0])})
	case ir.OpGlobal:
		c.push(Ins{Op: opGlobal, Dst: dst, A: int32(ins.Global.Index)})
	case ir.OpView:
		c.push(Ins{Op: pick(c.provenView(ins), opViewU, opView),
			Dst: dst, A: c.opnd(ins.Args[0]), B: c.opnd(ins.Args[1]), Pos: pos})
	case ir.OpLoad:
		isF := ins.Typ.Elem == ast.Float
		// A chain whose every view is proven in bounds compiles to the
		// unchecked form: no level can fault, so no check and no Pos fidelity
		// is needed.
		uc := len(chain) > 0
		for _, v := range chain {
			uc = uc && c.provenView(v)
		}
		switch len(chain) {
		case 0:
			c.push(Ins{Op: pick(isF, opLoadF, opLoadI), Dst: dst, A: c.opnd(ins.Args[0])})
		case 1:
			op := pick(isF, opLdIdxF, opLdIdxI)
			if uc {
				op = pick(isF, opLdIdxFU, opLdIdxIU)
			}
			c.push(Ins{Op: op, Dst: dst,
				A: c.opnd(chain[0].Args[0]), B: c.opnd(chain[0].Args[1]), Pos: int32(chain[0].Pos)})
		case 2:
			op := pick(isF, opLdIdx2F, opLdIdx2I)
			if uc {
				op = pick(isF, opLdIdx2FU, opLdIdx2IU)
			}
			c.push(Ins{Op: op, Dst: dst,
				A: c.opnd(chain[0].Args[0]), B: c.opnd(chain[0].Args[1]),
				C: c.opnd(chain[1].Args[1]), Pos: int32(chain[0].Pos)})
		default:
			op := pick(isF, opLdIdxNF, opLdIdxNI)
			if uc {
				op = pick(isF, opLdIdxNFU, opLdIdxNIU)
			}
			c.push(Ins{Op: op, Dst: dst,
				A: c.opnd(chain[0].Args[0]), B: c.idxList(chain), C: int32(len(chain)),
				Pos: int32(chain[0].Pos)})
		}
	case ir.OpStore:
		uc := len(chain) > 0
		for _, v := range chain {
			uc = uc && c.provenView(v)
		}
		switch len(chain) {
		case 0:
			c.push(Ins{Op: opStore, A: c.opnd(ins.Args[0]), B: c.opnd(ins.Args[1])})
		case 1:
			c.push(Ins{Op: pick(uc, opStIdxU, opStIdx),
				A: c.opnd(chain[0].Args[0]), B: c.opnd(chain[0].Args[1]),
				C: c.opnd(ins.Args[1]), Pos: int32(chain[0].Pos)})
		case 2:
			c.push(Ins{Op: pick(uc, opStIdx2U, opStIdx2), Dst: c.opnd(ins.Args[1]),
				A: c.opnd(chain[0].Args[0]), B: c.opnd(chain[0].Args[1]),
				C: c.opnd(chain[1].Args[1]), Pos: int32(chain[0].Pos)})
		default:
			c.push(Ins{Op: pick(uc, opStIdxNU, opStIdxN), Dst: c.opnd(ins.Args[1]),
				A: c.opnd(chain[0].Args[0]), B: c.idxList(chain), C: int32(len(chain)),
				Pos: int32(chain[0].Pos)})
		}
	case ir.OpBuiltin:
		c.emitBuiltin(ins)
	case ir.OpBr:
		if latch != nil {
			// The counter write survives (Dst); the single-use comparison
			// is elided entirely.
			c.push(Ins{Op: pick(latch.Bin == ir.BinSub, opDecCmpBrI, opIncCmpBrI),
				Dst: int32(latch.ID), A: c.opnd(latch.Args[0]), B: c.opnd(latch.Args[1]),
				C: c.opnd(fused.Args[1]), Pos: int32(fused.Bin)})
			return
		}
		if fused != nil {
			isFloat := fused.Args[0].Type().Elem == ast.Float
			c.push(Ins{Op: pick(isFloat, opBrCmpF, opBrCmpI),
				A: c.opnd(fused.Args[0]), B: c.opnd(fused.Args[1]), C: int32(fused.Bin)})
			return
		}
		c.push(Ins{Op: opBr, A: c.opnd(ins.Args[0])})
	case ir.OpJump:
		if latch != nil {
			c.push(Ins{Op: pick(latch.Bin == ir.BinSub, opDecJmpI, opIncJmpI),
				Dst: int32(latch.ID), A: c.opnd(latch.Args[0]), B: c.opnd(latch.Args[1])})
			return
		}
		c.push(Ins{Op: opJump})
	case ir.OpRet:
		if len(ins.Args) > 0 {
			c.push(Ins{Op: opRetVal, A: c.opnd(ins.Args[0])})
			return
		}
		c.push(Ins{Op: opRetVoid})
	}
}

func (c *fnCompiler) emitBuiltin(ins *ir.Instr) {
	dst := int32(ins.ID)
	pos := int32(ins.Pos)
	argN := func(i int) int32 { return c.opnd(ins.Args[i]) }
	switch ins.Builtin {
	case "sqrt", "fabs", "floor", "exp", "log", "sin", "cos":
		op := map[string]opcode{
			"sqrt": opSqrt, "fabs": opFabs, "floor": opFloor,
			"exp": opExp, "log": opLog, "sin": opSin, "cos": opCos,
		}[ins.Builtin]
		c.push(Ins{Op: op, Dst: dst, A: argN(0)})
	case "pow":
		c.push(Ins{Op: opPow, Dst: dst, A: argN(0), B: argN(1)})
	case "abs":
		c.push(Ins{Op: opAbsI, Dst: dst, A: argN(0)})
	case "min":
		c.push(Ins{Op: pick(ins.Typ.Elem == ast.Float, opMinF, opMinI), Dst: dst, A: argN(0), B: argN(1)})
	case "max":
		c.push(Ins{Op: pick(ins.Typ.Elem == ast.Float, opMaxF, opMaxI), Dst: dst, A: argN(0), B: argN(1)})
	case "rand":
		c.push(Ins{Op: opRand, Dst: dst})
	case "frand":
		c.push(Ins{Op: opFrand, Dst: dst})
	case "srand":
		c.push(Ins{Op: opSrand, A: argN(0)})
	case "dim":
		c.push(Ins{Op: opDim, Dst: dst, A: argN(0), B: argN(1), Pos: pos})
	case "printstr":
		si := int32(len(c.fc.Strs))
		c.fc.Strs = append(c.fc.Strs, ins.Aux)
		c.push(Ins{Op: opPrintStr, A: si})
	case "printval":
		var op opcode
		switch ins.Args[0].Type().Elem {
		case ast.Float:
			op = opPrintValF
		case ast.Bool:
			op = opPrintValB
		default:
			op = opPrintValI
		}
		c.push(Ins{Op: op, A: argN(0)})
	case "printnl":
		c.push(Ins{Op: opPrintNl})
	}
}

func pick(cond bool, a, b opcode) opcode {
	if cond {
		return a
	}
	return b
}
