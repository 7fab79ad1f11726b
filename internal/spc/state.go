package spc

import (
	"wizgo/internal/mach"
	"wizgo/internal/wasm"
)

// aval is the abstract value of one frame slot (local or operand),
// Figure 1's per-slot state: register assignment, constant knowledge,
// spill state, and tag freshness.
type aval struct {
	typ      wasm.ValueType
	reg      int8 // register caching this slot's value, or -1
	isConst  bool
	konst    uint64
	inMem    bool // slots[vfp+i] holds the current value
	tagFresh bool // tags[vfp+i] holds the current tag
}

const noReg = int8(-1)

// scratchReg is the reserved assembler temporary (the analog of a
// scratch machine register like r11): never allocated, never pinned, so
// it is always safe for short move sequences without regalloc traffic.
const scratchReg = int32(mach.NumRegs - 1)

// regFile tracks register occupancy. refs counts how many live slots
// reference each register; with MultiReg a register may cache several
// slots (feature "MR"), without it at most one.
type regFile struct {
	refs   [mach.NumRegs]int16
	cursor int
	limit  int
}

func (r *regFile) reset() {
	for i := range r.refs {
		r.refs[i] = 0
	}
	r.cursor = 0
}

// tryAlloc returns a free register or -1.
func (r *regFile) tryAlloc() int8 {
	for i := 0; i < r.limit; i++ {
		reg := (r.cursor + i) % r.limit
		if r.refs[reg] == 0 {
			r.cursor = (reg + 1) % r.limit
			r.refs[reg] = 1
			return int8(reg)
		}
	}
	return noReg
}

// victim picks a register to spill, round-robin.
func (r *regFile) victim() int8 {
	v := int8(r.cursor % r.limit)
	r.cursor = (int(v) + 1) % r.limit
	return v
}

func (r *regFile) retain(reg int8)  { r.refs[reg]++ }
func (r *regFile) release(reg int8) { r.refs[reg]-- }

// state is the compiler's abstract machine state: one aval per frame
// slot plus the register file. Slots 0..numLocals-1 are locals; operand
// slot i lives at numLocals+i. h is the operand stack height.
type state struct {
	avals []aval
	h     int
	regs  regFile
}

// snapshot returns a deep copy — the paper's "making copy extremely
// cheap (i.e. memcpy)" strategy for control-flow splits.
func (s *state) snapshot() *state {
	cp := &state{h: s.h, regs: s.regs}
	cp.avals = make([]aval, len(s.avals))
	copy(cp.avals, s.avals)
	return cp
}

// restore overwrites s with a previously taken snapshot.
func (s *state) restore(from *state) {
	copy(s.avals, from.avals)
	s.h = from.h
	s.regs = from.regs
}

// releaseVal drops a popped value's register reference.
func (s *state) releaseVal(v *aval) {
	if v.reg != noReg {
		s.regs.release(v.reg)
		v.reg = noReg
	}
}

// pendingCmp is a compare whose emission is deferred one instruction so
// a following br_if/if can fuse it (the paper's peephole optimization).
// Its operand registers stay referenced until emitted or fused.
type pendingCmp struct {
	op       wasm.Opcode // the wasm comparison (or i32.eqz)
	rb, rc   int8        // operand registers (rc unused when imm form)
	imm      uint64
	isImm    bool
	resType  wasm.ValueType // always i32
	operandB wasm.ValueType // i32 or i64 comparison width
}

// fusedBr maps a wasm compare opcode to the fused branch-if-true
// MachCode op, for i32 and i64 widths, register and immediate forms.
func fusedBr(op wasm.Opcode, width wasm.ValueType, isImm bool) (mach.Op, bool) {
	if width == wasm.I64 {
		if isImm {
			return 0, false
		}
		switch op {
		case wasm.OpI64Eq:
			return mach.OBrI64Eq, true
		case wasm.OpI64Ne:
			return mach.OBrI64Ne, true
		case wasm.OpI64LtS:
			return mach.OBrI64LtS, true
		case wasm.OpI64LtU:
			return mach.OBrI64LtU, true
		case wasm.OpI64GtS:
			return mach.OBrI64GtS, true
		case wasm.OpI64GtU:
			return mach.OBrI64GtU, true
		case wasm.OpI64LeS:
			return mach.OBrI64LeS, true
		case wasm.OpI64LeU:
			return mach.OBrI64LeU, true
		case wasm.OpI64GeS:
			return mach.OBrI64GeS, true
		case wasm.OpI64GeU:
			return mach.OBrI64GeU, true
		}
		return 0, false
	}
	if isImm {
		switch op {
		case wasm.OpI32Eq:
			return mach.OBrI32EqImm, true
		case wasm.OpI32Ne:
			return mach.OBrI32NeImm, true
		case wasm.OpI32LtS:
			return mach.OBrI32LtSImm, true
		case wasm.OpI32LtU:
			return mach.OBrI32LtUImm, true
		case wasm.OpI32GtS:
			return mach.OBrI32GtSImm, true
		case wasm.OpI32GtU:
			return mach.OBrI32GtUImm, true
		case wasm.OpI32LeS:
			return mach.OBrI32LeSImm, true
		case wasm.OpI32LeU:
			return mach.OBrI32LeUImm, true
		case wasm.OpI32GeS:
			return mach.OBrI32GeSImm, true
		case wasm.OpI32GeU:
			return mach.OBrI32GeUImm, true
		}
		return 0, false
	}
	switch op {
	case wasm.OpI32Eq:
		return mach.OBrI32Eq, true
	case wasm.OpI32Ne:
		return mach.OBrI32Ne, true
	case wasm.OpI32LtS:
		return mach.OBrI32LtS, true
	case wasm.OpI32LtU:
		return mach.OBrI32LtU, true
	case wasm.OpI32GtS:
		return mach.OBrI32GtS, true
	case wasm.OpI32GtU:
		return mach.OBrI32GtU, true
	case wasm.OpI32LeS:
		return mach.OBrI32LeS, true
	case wasm.OpI32LeU:
		return mach.OBrI32LeU, true
	case wasm.OpI32GeS:
		return mach.OBrI32GeS, true
	case wasm.OpI32GeU:
		return mach.OBrI32GeU, true
	}
	return 0, false
}

// invertCmp returns the comparison testing the opposite condition, used
// when an `if` needs to branch to its else-arm on false.
func invertCmp(op wasm.Opcode) wasm.Opcode {
	switch op {
	case wasm.OpI32Eq:
		return wasm.OpI32Ne
	case wasm.OpI32Ne:
		return wasm.OpI32Eq
	case wasm.OpI32LtS:
		return wasm.OpI32GeS
	case wasm.OpI32LtU:
		return wasm.OpI32GeU
	case wasm.OpI32GtS:
		return wasm.OpI32LeS
	case wasm.OpI32GtU:
		return wasm.OpI32LeU
	case wasm.OpI32LeS:
		return wasm.OpI32GtS
	case wasm.OpI32LeU:
		return wasm.OpI32GtU
	case wasm.OpI32GeS:
		return wasm.OpI32LtS
	case wasm.OpI32GeU:
		return wasm.OpI32LtU
	case wasm.OpI64Eq:
		return wasm.OpI64Ne
	case wasm.OpI64Ne:
		return wasm.OpI64Eq
	case wasm.OpI64LtS:
		return wasm.OpI64GeS
	case wasm.OpI64LtU:
		return wasm.OpI64GeU
	case wasm.OpI64GtS:
		return wasm.OpI64LeS
	case wasm.OpI64GtU:
		return wasm.OpI64LeU
	case wasm.OpI64LeS:
		return wasm.OpI64GtS
	case wasm.OpI64LeU:
		return wasm.OpI64GtU
	case wasm.OpI64GeS:
		return wasm.OpI64LtS
	case wasm.OpI64GeU:
		return wasm.OpI64LtU
	}
	return 0
}

// immForm maps a wasm binary opcode to its immediate-mode MachCode op
// (feature "ISEL"). Only commutative-or-rhs-immediate forms exist, like
// real ISAs.
func immForm(op wasm.Opcode) (mach.Op, bool) {
	switch op {
	case wasm.OpI32Add:
		return mach.OI32AddImm, true
	case wasm.OpI32Sub:
		return mach.OI32SubImm, true
	case wasm.OpI32Mul:
		return mach.OI32MulImm, true
	case wasm.OpI32And:
		return mach.OI32AndImm, true
	case wasm.OpI32Or:
		return mach.OI32OrImm, true
	case wasm.OpI32Xor:
		return mach.OI32XorImm, true
	case wasm.OpI32Shl:
		return mach.OI32ShlImm, true
	case wasm.OpI32ShrS:
		return mach.OI32ShrSImm, true
	case wasm.OpI32ShrU:
		return mach.OI32ShrUImm, true
	case wasm.OpI64Add:
		return mach.OI64AddImm, true
	case wasm.OpI64Sub:
		return mach.OI64SubImm, true
	case wasm.OpI64Mul:
		return mach.OI64MulImm, true
	case wasm.OpI64And:
		return mach.OI64AndImm, true
	case wasm.OpI64Or:
		return mach.OI64OrImm, true
	case wasm.OpI64Xor:
		return mach.OI64XorImm, true
	case wasm.OpI64Shl:
		return mach.OI64ShlImm, true
	case wasm.OpI64ShrS:
		return mach.OI64ShrSImm, true
	case wasm.OpI64ShrU:
		return mach.OI64ShrUImm, true
	}
	return 0, false
}
