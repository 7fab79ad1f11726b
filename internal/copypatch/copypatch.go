// Package copypatch implements a template-based baseline compiler in the
// style of WasmNow / Copy&Patch (Xu & Kjolstad, OOPSLA 2021): for each
// Wasm instruction a pre-made machine-code template (a stencil) is
// stamped out with its immediates patched in. There is no abstract state
// beyond the stack height and which operands sit in registers — no
// register allocation decisions, no constant tracking, no snapshots —
// which is why this is the fastest compile pipeline in Figure 8.
//
// Copy&Patch chains its stencils with operands passed in registers, and
// so do these templates: the top three operands stay in the fixed
// scratch registers r0–r2, bottom first. A push takes a free register
// and spills the bottom cached operand to its slot only when all three
// are taken; a pop takes a cached register, or loads from the slot when
// nothing is cached. Numeric templates select the typed MachCode op
// through the op-form tables shared with the single-pass compiler.
//
// The cache is flushed to the value-stack slots before every call,
// block, loop, if, else, end, branch, return, memory.grow, memory.copy
// and memory.fill (a branch condition or table index is popped first),
// and dropped after unreachable. So the frame is canonical at every
// call, label, OSR entry and deopt checkpoint, and calls need no spill
// code beyond the flush. The price is code quality: locals, deeper
// operands and every value crossing a control-flow boundary round-trip
// through memory, so execution lands between the register-allocating
// baselines and the interpreters (Figures 7 and 10).
package copypatch

import (
	"fmt"

	"wizgo/internal/engine"
	"wizgo/internal/mach"
	"wizgo/internal/rt"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

// Tier adapts the template compiler for the engine.
type Tier struct{ TierName string }

// Name implements engine.Tier.
func (t Tier) Name() string {
	if t.TierName != "" {
		return t.TierName
	}
	return "copypatch"
}

// Compile implements engine.Tier.
func (t Tier) Compile(m *wasm.Module, fidx uint32, decl *wasm.Func,
	info *validate.FuncInfo, probes *rt.ProbeSet) (engine.Code, error) {
	return Compile(m, fidx, decl, info)
}

// numCached is the number of top-of-stack operands kept in registers;
// the cache uses exactly the scratch registers r0..numCached-1.
const numCached = 3

type ctrl struct {
	op          wasm.Opcode
	label       int // end label (header for loops)
	elseLabel   int
	height      int
	nIn, nOut   int
	hasElse     bool
	unreachable bool
	wasDead     bool
}

type tc struct {
	m       *wasm.Module
	info    *validate.FuncInfo
	asm     *mach.Asm
	ctrls   []ctrl
	h       int
	nLocals int
	osr     map[int]int
	r       *wasm.Reader
	// cache lists the registers holding the top len(cache) operands,
	// bottom first; their slots are stale until flushed.
	cache    []int32
	cacheBuf [numCached]int32
	// held marks registers holding operands the current template has
	// popped but not yet consumed.
	held uint8
}

func (t *tc) slot(pos int) int { return t.nLocals + pos }

// Compile translates one function with per-opcode templates.
func Compile(m *wasm.Module, fidx uint32, decl *wasm.Func, info *validate.FuncInfo) (*mach.Code, error) {
	t := &tc{
		m: m, info: info, asm: mach.NewAsm(),
		nLocals: len(info.LocalTypes),
		osr:     make(map[int]int),
		r:       wasm.NewReader(decl.Body),
	}
	t.cache = t.cacheBuf[:0]
	ft := m.Types[decl.TypeIdx]

	// Prologue template: zero declared locals.
	for i := info.NumParams; i < t.nLocals; i++ {
		t.asm.Emit(mach.Instr{Op: mach.OStoreSlotConst, A: int32(i), Imm: 0})
	}
	t.ctrls = append(t.ctrls, ctrl{label: t.asm.NewLabel(), elseLabel: -1, nOut: len(ft.Results)})

	for t.r.Len() > 0 {
		pc := t.r.Pos
		op, err := t.r.ReadOpcode()
		if err != nil {
			return nil, err
		}
		if len(t.ctrls) == 0 {
			return nil, fmt.Errorf("copypatch: code after function end")
		}
		t.asm.SetWasmPC(pc)
		t.held = 0
		if err := t.instr(op, pc); err != nil {
			return nil, err
		}
	}
	code, err := t.asm.Finish()
	if err != nil {
		return nil, err
	}
	code.FuncIdx = fidx
	code.Name = m.FuncName(fidx)
	code.OSREntries = t.osr
	code.NumSlots = info.NumSlots()
	code.NumResults = len(ft.Results)
	code.NumParams = len(ft.Params)
	code.LocalTypes = info.LocalTypes
	return code, nil
}

// free returns a register holding no operand, spilling the bottom cached
// operand to its slot when all of them are taken.
func (t *tc) free() int32 {
	used := t.held
	for _, r := range t.cache {
		used |= 1 << r
	}
	for r := int32(0); r < numCached; r++ {
		if used&(1<<r) == 0 {
			return r
		}
	}
	r := t.cache[0]
	t.emit(mach.Instr{Op: mach.OStoreSlot, B: r, Imm: uint64(t.slot(t.h - len(t.cache)))})
	t.cache = t.cache[:copy(t.cache, t.cache[1:])]
	return r
}

// pop takes the top operand into a register: its cached register, or a
// load from its slot when nothing is cached. The register stays held
// until the current template ends.
func (t *tc) pop() int32 {
	t.h--
	var r int32
	if n := len(t.cache); n > 0 {
		r = t.cache[n-1]
		t.cache = t.cache[:n-1]
	} else {
		r = t.free()
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r, Imm: uint64(t.slot(t.h))})
	}
	t.held |= 1 << r
	return r
}

// push makes register r, which holds a new value, the top operand.
func (t *tc) push(r int32) {
	t.cache = append(t.cache, r)
	t.held &^= 1 << r
	t.h++
}

// pushNew emits in with a free destination register and pushes it.
func (t *tc) pushNew(in mach.Instr) {
	in.A = t.free()
	t.emit(in)
	t.push(in.A)
}

// flush stores the cached operands to their slots, making the frame
// canonical.
func (t *tc) flush() {
	base := t.h - len(t.cache)
	for i, r := range t.cache {
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r, Imm: uint64(t.slot(base + i))})
	}
	t.cache = t.cache[:0]
}

func (t *tc) blockArity() (nIn, nOut int, err error) {
	bt, err := t.r.S33()
	if err != nil {
		return 0, 0, err
	}
	if bt >= 0 {
		ty := t.m.Types[bt]
		return len(ty.Params), len(ty.Results), nil
	}
	if bt == -64 {
		return 0, 0, nil
	}
	return 0, 1, nil
}

func (t *tc) emit(in mach.Instr) { t.asm.Emit(in) }

// transfer moves the top val operands to the slots from dest on, for a
// control edge that leaves the cache empty. Operands left below them
// are dead on that edge: they belong to the block being left.
func (t *tc) transfer(dest, val int) {
	if n := len(t.cache); val <= n {
		for i, r := range t.cache[n-val:] {
			t.emit(mach.Instr{Op: mach.OStoreSlot, B: r, Imm: uint64(dest + i)})
		}
		t.cache = t.cache[:0]
		return
	}
	t.flush()
	src := t.slot(t.h - val)
	if src == dest {
		return
	}
	for i := 0; i < val; i++ {
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: 0, Imm: uint64(src + i)})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: 0, Imm: uint64(dest + i)})
	}
}

func (t *tc) frameAt(d uint32) *ctrl { return &t.ctrls[len(t.ctrls)-1-int(d)] }

func (t *tc) branchVals(fr *ctrl) int {
	if fr.op == wasm.OpLoop {
		return fr.nIn
	}
	return fr.nOut
}

// epilogue moves the results to the frame base and returns.
func (t *tc) epilogue() {
	t.transfer(0, len(t.info.Results))
	t.emit(mach.Instr{Op: mach.OReturn})
}

// endFunction closes the function body: the fall-through path returns
// directly, and branches to the function label return from slots.
func (t *tc) endFunction(fr ctrl) {
	if !fr.unreachable {
		t.epilogue()
	}
	if t.asm.Referenced(fr.label) {
		t.asm.Bind(fr.label)
		t.h = fr.nOut
		t.epilogue()
	}
}

func (t *tc) instr(op wasm.Opcode, pc int) error {
	fr := &t.ctrls[len(t.ctrls)-1]
	if fr.unreachable {
		return t.skip(op)
	}
	switch op {
	case wasm.OpUnreachable:
		t.emit(mach.Instr{Op: mach.OTrap, A: int32(rt.TrapUnreachable), Imm: uint64(pc)})
		t.cache = t.cache[:0]
		fr.unreachable = true
	case wasm.OpNop:
	case wasm.OpBlock:
		nIn, nOut, err := t.blockArity()
		if err != nil {
			return err
		}
		t.flush()
		t.ctrls = append(t.ctrls, ctrl{op: wasm.OpBlock, label: t.asm.NewLabel(),
			elseLabel: -1, height: t.h - nIn, nIn: nIn, nOut: nOut})
	case wasm.OpLoop:
		nIn, nOut, err := t.blockArity()
		if err != nil {
			return err
		}
		t.flush()
		bodyPC := t.r.Pos
		trips := t.info.Facts.TripsAt(bodyPC)
		if trips > 0 {
			t.emit(mach.Instr{Op: mach.OFuelPrepay, A: int32(trips), Imm: uint64(bodyPC)})
		}
		l := t.asm.NewLabel()
		t.asm.Bind(l)
		cp := mach.OCheckPoint
		if t.info.Facts.NoPollAt(bodyPC) {
			cp = mach.OCheckPointNoPoll
		}
		prepaid := int32(0)
		if trips > 0 {
			prepaid = 1
		}
		t.emit(mach.Instr{Op: cp, A: int32(t.nLocals + t.h), B: prepaid, Imm: uint64(bodyPC)})
		// OSR entry after the checkpoint: the interpreter charged this
		// header arrival at the back-edge it tiered up from.
		t.osr[bodyPC] = t.asm.Pos()
		t.ctrls = append(t.ctrls, ctrl{op: wasm.OpLoop, label: l,
			elseLabel: -1, height: t.h - nIn, nIn: nIn, nOut: nOut})
	case wasm.OpIf:
		nIn, nOut, err := t.blockArity()
		if err != nil {
			return err
		}
		cond := t.pop()
		t.flush()
		fr := ctrl{op: wasm.OpIf, label: t.asm.NewLabel(), elseLabel: t.asm.NewLabel(),
			height: t.h - nIn, nIn: nIn, nOut: nOut}
		t.asm.EmitBranch(mach.Instr{Op: mach.OBrIfZero, B: cond}, fr.elseLabel)
		t.ctrls = append(t.ctrls, fr)
	case wasm.OpElse:
		fr.hasElse = true
		t.transfer(t.slot(fr.height), fr.nOut)
		t.asm.EmitBranch(mach.Instr{Op: mach.OJump}, fr.label)
		t.asm.Bind(fr.elseLabel)
		t.h = fr.height + fr.nIn
	case wasm.OpEnd:
		frv := *fr
		t.ctrls = t.ctrls[:len(t.ctrls)-1]
		if len(t.ctrls) == 0 {
			t.endFunction(frv)
			return nil
		}
		t.transfer(t.slot(frv.height), frv.nOut)
		if frv.op == wasm.OpIf && !frv.hasElse {
			t.asm.Bind(frv.elseLabel)
		}
		if frv.op != wasm.OpLoop {
			t.asm.Bind(frv.label)
		}
		t.h = frv.height + frv.nOut
	case wasm.OpBr:
		d, err := t.r.U32()
		if err != nil {
			return err
		}
		if int(d) == len(t.ctrls)-1 {
			t.epilogue() // a branch to the function label returns
		} else {
			target := t.frameAt(d)
			t.transfer(t.slot(target.height), t.branchVals(target))
			t.asm.EmitBranch(mach.Instr{Op: mach.OJump}, target.label)
		}
		fr.unreachable = true
	case wasm.OpBrIf:
		d, err := t.r.U32()
		if err != nil {
			return err
		}
		cond := t.pop()
		t.flush()
		target := t.frameAt(d)
		vals := t.branchVals(target)
		if t.h-vals == target.height {
			t.asm.EmitBranch(mach.Instr{Op: mach.OBrIfNonZero, B: cond}, target.label)
		} else {
			skip := t.asm.NewLabel()
			t.asm.EmitBranch(mach.Instr{Op: mach.OBrIfZero, B: cond}, skip)
			t.transfer(t.slot(target.height), vals)
			t.asm.EmitBranch(mach.Instr{Op: mach.OJump}, target.label)
			t.asm.Bind(skip)
		}
	case wasm.OpBrTable:
		n, err := t.r.U32()
		if err != nil {
			return err
		}
		depths := make([]uint32, n+1)
		for i := range depths {
			if depths[i], err = t.r.U32(); err != nil {
				return err
			}
		}
		idx := t.pop()
		t.flush()
		labels := make([]int, len(depths))
		type tramp struct {
			label int
			depth uint32
		}
		var tramps []tramp
		for i, d := range depths {
			target := t.frameAt(d)
			vals := t.branchVals(target)
			if t.h-vals == target.height {
				labels[i] = target.label
			} else {
				l := t.asm.NewLabel()
				labels[i] = l
				tramps = append(tramps, tramp{l, d})
			}
		}
		tidx := t.asm.NewTable(labels)
		t.emit(mach.Instr{Op: mach.OBrTable, A: int32(tidx), B: idx})
		for _, tr := range tramps {
			t.asm.Bind(tr.label)
			target := t.frameAt(tr.depth)
			t.transfer(t.slot(target.height), t.branchVals(target))
			t.asm.EmitBranch(mach.Instr{Op: mach.OJump}, target.label)
		}
		fr.unreachable = true
	case wasm.OpReturn:
		t.epilogue()
		fr.unreachable = true
	case wasm.OpCall:
		fidx, err := t.r.U32()
		if err != nil {
			return err
		}
		ft, err := t.m.FuncTypeAt(fidx)
		if err != nil {
			return err
		}
		t.flush()
		argBase := t.nLocals + t.h - len(ft.Params)
		t.emit(mach.Instr{Op: mach.OCall, A: int32(fidx), B: int32(argBase)})
		t.h += len(ft.Results) - len(ft.Params)
	case wasm.OpCallIndirect:
		typeIdx, err := t.r.U32()
		if err != nil {
			return err
		}
		tblIdx, err := t.r.U32()
		if err != nil {
			return err
		}
		ft := t.m.Types[typeIdx]
		elem := t.pop()
		t.flush()
		argBase := t.nLocals + t.h - len(ft.Params)
		t.emit(mach.Instr{Op: mach.OCallIndirect, A: int32(typeIdx), B: int32(argBase), C: elem, Imm: uint64(tblIdx)})
		t.h += len(ft.Results) - len(ft.Params)
	case wasm.OpDrop:
		if n := len(t.cache); n > 0 {
			t.cache = t.cache[:n-1]
		}
		t.h--
	case wasm.OpSelect:
		t.selectTemplate()
	case wasm.OpSelectT:
		n, err := t.r.U32()
		if err != nil {
			return err
		}
		if _, err := t.r.Take(int(n)); err != nil {
			return err
		}
		t.selectTemplate()
	case wasm.OpLocalGet:
		idx, err := t.r.U32()
		if err != nil {
			return err
		}
		t.pushNew(mach.Instr{Op: mach.OLoadSlot, Imm: uint64(idx)})
	case wasm.OpLocalSet:
		idx, err := t.r.U32()
		if err != nil {
			return err
		}
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: t.pop(), Imm: uint64(idx)})
	case wasm.OpLocalTee:
		idx, err := t.r.U32()
		if err != nil {
			return err
		}
		v := t.pop()
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: v, Imm: uint64(idx)})
		t.push(v)
	case wasm.OpGlobalGet:
		idx, err := t.r.U32()
		if err != nil {
			return err
		}
		t.pushNew(mach.Instr{Op: mach.OGlobalGet, Imm: uint64(idx)})
	case wasm.OpGlobalSet:
		idx, err := t.r.U32()
		if err != nil {
			return err
		}
		gt, _, _ := t.m.GlobalTypeAt(idx)
		t.emit(mach.Instr{Op: mach.OGlobalSet, B: t.pop(), C: int32(wasm.TagOf(gt)), Imm: uint64(idx)})
	case wasm.OpI32Const:
		v, err := t.r.S32()
		if err != nil {
			return err
		}
		t.pushConst(uint64(uint32(v)))
	case wasm.OpI64Const:
		v, err := t.r.S64()
		if err != nil {
			return err
		}
		t.pushConst(uint64(v))
	case wasm.OpF32Const:
		bits, err := t.r.F32()
		if err != nil {
			return err
		}
		t.pushConst(uint64(bits))
	case wasm.OpF64Const:
		bits, err := t.r.F64()
		if err != nil {
			return err
		}
		t.pushConst(bits)
	case wasm.OpMemorySize:
		if _, err := t.r.Byte(); err != nil {
			return err
		}
		t.pushNew(mach.Instr{Op: mach.OMemSize})
	case wasm.OpMemoryGrow:
		if _, err := t.r.Byte(); err != nil {
			return err
		}
		delta := t.pop()
		t.flush()
		t.emit(mach.Instr{Op: mach.OMemGrow, A: delta, B: delta})
		t.push(delta)
	case wasm.OpMemoryCopy:
		if _, err := t.r.Take(2); err != nil {
			return err
		}
		t.bulkTemplate(mach.OMemCopy)
	case wasm.OpMemoryFill:
		if _, err := t.r.Byte(); err != nil {
			return err
		}
		t.bulkTemplate(mach.OMemFill)
	case wasm.OpRefNull:
		if _, err := t.r.Byte(); err != nil {
			return err
		}
		t.pushConst(wasm.NullRef)
	case wasm.OpRefIsNull:
		v := t.pop()
		t.emit(mach.Instr{Op: mach.OI64Eqz, A: v, B: v})
		t.push(v)
	case wasm.OpRefFunc:
		fidx, err := t.r.U32()
		if err != nil {
			return err
		}
		t.pushConst(uint64(fidx) + 1)
	default:
		return t.numericTemplate(op, pc)
	}
	return nil
}

func (t *tc) pushConst(bits uint64) {
	t.pushNew(mach.Instr{Op: mach.OConst, Imm: bits})
}

// bulkTemplate emits memory.copy or memory.fill: destination, source
// (or fill byte) and length.
func (t *tc) bulkTemplate(mop mach.Op) {
	n := t.pop()
	src := t.pop()
	dst := t.pop()
	t.flush()
	t.emit(mach.Instr{Op: mop, A: dst, B: src, C: n})
}

func (t *tc) selectTemplate() {
	cond := t.pop()
	f := t.pop()
	v := t.pop() // the true value, kept unless cond is zero
	t.emit(mach.Instr{Op: mach.OSelect, A: v, B: f, C: cond})
	t.push(v)
}

// numericTemplate stamps out the typed op for a load, store or numeric
// instruction, or the generic OGen1/OGen2 for opcodes with no typed
// form. pc is the wasm offset of op, used to look up analysis facts.
func (t *tc) numericTemplate(op wasm.Opcode, pc int) error {
	if op.Imm() == wasm.ImmMem {
		if _, err := t.r.U32(); err != nil {
			return err
		}
		off, err := t.r.U32()
		if err != nil {
			return err
		}
		nc := t.info.Facts.InBoundsAt(pc)
		if mop, _ := mach.LoadForm(op); mop != 0 {
			if nc {
				mop = mach.Unchecked(mop)
			}
			addr := t.pop()
			t.emit(mach.Instr{Op: mop, A: addr, B: addr, Imm: uint64(off)})
			t.push(addr)
			return nil
		}
		mop := mach.StoreForm(op)
		if nc {
			mop = mach.Unchecked(mop)
		}
		v := t.pop()
		t.emit(mach.Instr{Op: mop, B: t.pop(), C: v, Imm: uint64(off)})
		return nil
	}
	params, _, ok := op.Sig()
	if !ok {
		return fmt.Errorf("copypatch: unsupported opcode %v", op)
	}
	switch len(params) {
	case 1:
		v := t.pop()
		in := mach.Instr{Op: mach.OGen1, A: v, B: v, Imm: uint64(op)}
		if mop, ok := mach.UnForm(op); ok {
			in = mach.Instr{Op: mop, A: v, B: v}
		}
		t.emit(in)
		t.push(v)
	case 2:
		b := t.pop()
		a := t.pop()
		in := mach.Instr{Op: mach.OGen2, A: a, B: a, C: b, Imm: uint64(op)}
		if mop, ok := mach.RegForm(op); ok {
			in = mach.Instr{Op: mop, A: a, B: a, C: b}
		}
		t.emit(in)
		t.push(a)
	default:
		return fmt.Errorf("copypatch: unexpected arity for %v", op)
	}
	return nil
}

func (t *tc) skip(op wasm.Opcode) error {
	switch op {
	case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
		if _, _, err := t.blockArity(); err != nil {
			return err
		}
		t.ctrls = append(t.ctrls, ctrl{op: op, label: -1, elseLabel: -1,
			unreachable: true, wasDead: true, height: t.h})
	case wasm.OpElse:
		fr := &t.ctrls[len(t.ctrls)-1]
		fr.hasElse = true
		if !fr.wasDead {
			t.asm.Bind(fr.elseLabel)
			t.h = fr.height + fr.nIn
			fr.unreachable = false
		}
	case wasm.OpEnd:
		fr := t.ctrls[len(t.ctrls)-1]
		t.ctrls = t.ctrls[:len(t.ctrls)-1]
		if fr.wasDead {
			return nil
		}
		if len(t.ctrls) == 0 {
			t.endFunction(fr)
			return nil
		}
		if fr.op == wasm.OpIf && !fr.hasElse {
			t.asm.Bind(fr.elseLabel)
		}
		if fr.op != wasm.OpLoop {
			t.asm.Bind(fr.label)
		}
		t.h = fr.height + fr.nOut
		// The merge is reachable via branches or the if false edge.
		if fr.op != wasm.OpLoop {
			t.ctrls[len(t.ctrls)-1].unreachable = false
		}
	default:
		return t.r.SkipImm(op)
	}
	return nil
}
