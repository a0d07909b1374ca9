// Block-batched HCPA updates: the bytecode VM replaces the per-instruction
// Step calls of a call-free basic block (or of the phis an edge lands on)
// with a single StepBlock over a precompiled template. Within such a block
// neither the region stack, the tags, nor the control-dependence stack can
// change — region events fire only on CFG edges, and PushCtrl only after
// the terminator — so the control baseline can be resolved once and every
// instruction's availability-time fold replayed from compile-time-resolved
// register indices. Shadow-memory traffic replays in program order against
// the cell addresses the VM captured while executing the block. The result
// is bit-identical to issuing the template's Steps one by one.
package kremlib

import "kremlin/internal/shadow"

// TplKind is the shadow-state effect of a template entry beyond its
// register fold — Step's per-opcode cases, decided at compile time.
type TplKind uint8

// Template entry kinds.
const (
	TplReg   TplKind = iota // fold Args; store the result at Res
	TplLoad                 // fold Args (the address), then the shadow slot at the next captured address
	TplStore                // fold Args; WriteVec at the next captured address
	TplRand                 // fold Args and the RNG chain; update it (and Res)
	TplPrint                // fold Args and the output chain; update it
	TplRet                  // fold Args; capture the frame's return vector
)

// TplIns is one instruction of a block template: fold the availability
// vectors of Args (shadow register IDs; constants and broken dependencies
// are dropped at compile time) over the control baseline, apply Kind's
// shadow-state read, add Lat, update the per-level critical path, apply
// Kind's write, and store the result at register Res (-1 when the
// instruction produces no register value).
type TplIns struct {
	Res  int32
	Kind TplKind
	// Untraced marks a reduction's broken old-value read, which the
	// loop-carried dependence tracer must not report: the memory slot of a
	// load, the incoming argument of a phi. The fold itself still happens.
	Untraced bool
	// Covered marks an entry whose critical-path update StepBlock skips
	// because it cannot raise the path: a later entry of the template folds
	// its result (and so reaches at least its time at every tracked level),
	// or it adds no latency (its time is then a max of times that were
	// recorded when they were produced).
	Covered bool
	Lat     uint64
	Args    []int32
}

// BlockTemplate is the precompiled HCPA effect of one call-free basic
// block's body, or of the phis at the target of one CFG edge.
type BlockTemplate struct {
	Ins []TplIns
	// TotalLat is the summed latency of every instruction in the block
	// (including zero-latency ones), accrued to total work in one add.
	TotalLat uint64
}

// StepBlock replays tpl in a single call. It is observably identical to
// calling Step for each of the template's instructions in order: the
// control baseline is resolved once (legal because nothing inside a block
// can change the region stack, tags, or control stack), and each entry
// folds its argument vectors with the tag-mismatch-is-zero rule, adds its
// latency, raises the per-level critical path (unless the raise is
// covered), and stores its vector (register results directly in the
// shadow register). addrs are the simulated cell addresses of the block's
// loads and stores in program order; each TplLoad/TplStore entry consumes
// the next one. The returned vector is the last instruction's (the
// terminator's, for Br-ended blocks — the caller feeds it to PushCtrl
// exactly as it would Step's return; nil for an empty template); it is
// valid until the next Step/StepBlock.
func (rt *Runtime) StepBlock(fs *FrameState, tpl *BlockTemplate, addrs []uint64) shadow.Vec {
	rt.totalWork += tpl.TotalLat
	if len(tpl.Ins) == 0 {
		return nil
	}
	d := rt.level()
	lo := rt.lowLevel()
	tags := rt.tags

	// Resolve the per-instruction prologue (zeros below the window, control
	// time inside it) once into a baseline all template instructions copy.
	base := rt.blockBase
	if cap(base) < d {
		base = make(shadow.Vec, d, d+16)
		rt.blockBase = base
	}
	base = base[:d]
	for l := 0; l < lo; l++ {
		base[l] = shadow.Entry{}
	}
	if lo < d {
		cv := fs.ctrlVec()
		cn := len(cv)
		if cn > d {
			cn = d
		}
		for l := lo; l < cn; l++ {
			var t uint64
			if e := cv[l]; e.Tag == tags[l] {
				t = e.Time
			}
			base[l] = shadow.Entry{Time: t, Tag: tags[l]}
		}
		if cn < lo {
			cn = lo
		}
		for l := cn; l < d; l++ {
			base[l] = shadow.Entry{Tag: tags[l]}
		}
	}

	stack := rt.stack[lo:d]
	tracing := rt.carried != nil
	var out shadow.Vec
	for i := range tpl.Ins {
		ti := &tpl.Ins[i]
		if tracing {
			// Note every read before any write: a result computed in place
			// may overwrite the register it reads.
			if !ti.Untraced || ti.Kind == TplLoad {
				for _, a := range ti.Args {
					rt.noteVec(fs.Regs.Get(int(a)))
				}
			}
			switch ti.Kind {
			case TplRand:
				rt.noteVec(rt.randVec)
			case TplPrint:
				rt.noteVec(rt.ioVec)
			}
		}
		// Register results are computed in place (a self-reference is
		// always Args[0], which foldBase reads before it writes).
		out = rt.scratch[:d]
		if ti.Res >= 0 {
			out = fs.Regs.Dest(int(ti.Res), d)
		}
		// Every fold adds the latency: max(a, b) + lat = max(a+lat, b+lat).
		lat := ti.Lat
		if len(ti.Args) == 0 {
			foldBase(out, base, tags, nil, lo, lat)
		} else {
			foldBase(out, base, tags, fs.Regs.Get(int(ti.Args[0])), lo, lat)
			for _, a := range ti.Args[1:] {
				maxInto(out, tags, fs.Regs.Get(int(a)), lo, d, lat)
			}
		}
		var addr uint64
		switch ti.Kind {
		case TplLoad:
			addr, addrs = addrs[0], addrs[1:]
			s := rt.mem.Load(addr)
			maxIntoSlot(out, tags, s, lo, d, lat)
			if tracing && !ti.Untraced {
				rt.noteSlot(s)
			}
		case TplStore:
			addr, addrs = addrs[0], addrs[1:]
		case TplRand:
			maxInto(out, tags, rt.randVec, lo, d, lat)
		case TplPrint:
			maxInto(out, tags, rt.ioVec, lo, d, lat)
		}
		if !ti.Covered {
			w := out[lo:]
			stack := stack[:len(w)]
			for l := range w {
				if t := w[l].Time; t > stack[l].maxTime {
					stack[l].maxTime = t
				}
			}
		}
		switch ti.Kind {
		case TplStore:
			rt.mem.WriteVec(addr, out, d)
		case TplRand:
			rt.randVec = append(rt.randVec[:0], out...)
		case TplPrint:
			rt.ioVec = append(rt.ioVec[:0], out...)
		case TplRet:
			fs.RetVec = append(fs.RetVec[:0], out...)
		}
	}
	return out
}

// foldBase sets out to base with vec's availability times folded in and
// add added over [lo, len(out)) — an entry's baseline copy, first fold, and
// latency in one pass. vec may be out itself.
func foldBase(out, base shadow.Vec, tags []uint64, vec shadow.Vec, lo int, add uint64) {
	if lo > 0 {
		copy(out[:lo], base[:lo])
	}
	n := len(vec)
	if n > len(out) {
		n = len(out)
	}
	if n < lo {
		n, vec = lo, nil
	} else {
		vec = vec[lo:n]
	}
	o, b, t := out[lo:][:len(vec)], base[lo:][:len(vec)], tags[lo:][:len(vec)]
	for l := range vec {
		e := b[l]
		e.Time += add
		if v := vec[l]; v.Tag == t[l] && v.Time+add > e.Time {
			e.Time = v.Time + add
		}
		o[l] = e
	}
	o, b = out[n:], base[n:][:len(out)-n]
	for l := range o {
		o[l] = shadow.Entry{Time: b[l].Time + add, Tag: b[l].Tag}
	}
}
