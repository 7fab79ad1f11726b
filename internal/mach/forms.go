package mach

import "wizgo/internal/wasm"

// The op-form tables below are shared instruction selection: both the
// single-pass compiler (internal/spc) and the template compiler
// (internal/copypatch) pick the typed MachCode op for a Wasm numeric or
// memory opcode through them.

// RegForm maps a wasm binary opcode to its register MachCode op for the
// dedicated hot set; the remainder go through OGen2.
func RegForm(op wasm.Opcode) (Op, bool) {
	switch op {
	case wasm.OpI32Add:
		return OI32Add, true
	case wasm.OpI32Sub:
		return OI32Sub, true
	case wasm.OpI32Mul:
		return OI32Mul, true
	case wasm.OpI32DivS:
		return OI32DivS, true
	case wasm.OpI32DivU:
		return OI32DivU, true
	case wasm.OpI32RemS:
		return OI32RemS, true
	case wasm.OpI32RemU:
		return OI32RemU, true
	case wasm.OpI32And:
		return OI32And, true
	case wasm.OpI32Or:
		return OI32Or, true
	case wasm.OpI32Xor:
		return OI32Xor, true
	case wasm.OpI32Shl:
		return OI32Shl, true
	case wasm.OpI32ShrS:
		return OI32ShrS, true
	case wasm.OpI32ShrU:
		return OI32ShrU, true
	case wasm.OpI64Add:
		return OI64Add, true
	case wasm.OpI64Sub:
		return OI64Sub, true
	case wasm.OpI64Mul:
		return OI64Mul, true
	case wasm.OpI64DivS:
		return OI64DivS, true
	case wasm.OpI64DivU:
		return OI64DivU, true
	case wasm.OpI64RemS:
		return OI64RemS, true
	case wasm.OpI64RemU:
		return OI64RemU, true
	case wasm.OpI64And:
		return OI64And, true
	case wasm.OpI64Or:
		return OI64Or, true
	case wasm.OpI64Xor:
		return OI64Xor, true
	case wasm.OpI64Shl:
		return OI64Shl, true
	case wasm.OpI64ShrS:
		return OI64ShrS, true
	case wasm.OpI64ShrU:
		return OI64ShrU, true
	case wasm.OpI32Eq:
		return OI32Eq, true
	case wasm.OpI32Ne:
		return OI32Ne, true
	case wasm.OpI32LtS:
		return OI32LtS, true
	case wasm.OpI32LtU:
		return OI32LtU, true
	case wasm.OpI32GtS:
		return OI32GtS, true
	case wasm.OpI32GtU:
		return OI32GtU, true
	case wasm.OpI32LeS:
		return OI32LeS, true
	case wasm.OpI32LeU:
		return OI32LeU, true
	case wasm.OpI32GeS:
		return OI32GeS, true
	case wasm.OpI32GeU:
		return OI32GeU, true
	case wasm.OpI64Eq:
		return OI64Eq, true
	case wasm.OpI64Ne:
		return OI64Ne, true
	case wasm.OpI64LtS:
		return OI64LtS, true
	case wasm.OpI64LtU:
		return OI64LtU, true
	case wasm.OpI64GtS:
		return OI64GtS, true
	case wasm.OpI64GtU:
		return OI64GtU, true
	case wasm.OpI64LeS:
		return OI64LeS, true
	case wasm.OpI64LeU:
		return OI64LeU, true
	case wasm.OpI64GeS:
		return OI64GeS, true
	case wasm.OpI64GeU:
		return OI64GeU, true
	case wasm.OpF32Eq:
		return OF32Eq, true
	case wasm.OpF32Ne:
		return OF32Ne, true
	case wasm.OpF32Lt:
		return OF32Lt, true
	case wasm.OpF32Gt:
		return OF32Gt, true
	case wasm.OpF32Le:
		return OF32Le, true
	case wasm.OpF32Ge:
		return OF32Ge, true
	case wasm.OpF64Eq:
		return OF64Eq, true
	case wasm.OpF64Ne:
		return OF64Ne, true
	case wasm.OpF64Lt:
		return OF64Lt, true
	case wasm.OpF64Gt:
		return OF64Gt, true
	case wasm.OpF64Le:
		return OF64Le, true
	case wasm.OpF64Ge:
		return OF64Ge, true
	case wasm.OpF32Add:
		return OF32Add, true
	case wasm.OpF32Sub:
		return OF32Sub, true
	case wasm.OpF32Mul:
		return OF32Mul, true
	case wasm.OpF32Div:
		return OF32Div, true
	case wasm.OpF32Min:
		return OF32Min, true
	case wasm.OpF32Max:
		return OF32Max, true
	case wasm.OpF64Add:
		return OF64Add, true
	case wasm.OpF64Sub:
		return OF64Sub, true
	case wasm.OpF64Mul:
		return OF64Mul, true
	case wasm.OpF64Div:
		return OF64Div, true
	case wasm.OpF64Min:
		return OF64Min, true
	case wasm.OpF64Max:
		return OF64Max, true
	}
	return 0, false
}

// UnForm maps a wasm unary opcode to its dedicated MachCode op; the
// remainder go through OGen1.
func UnForm(op wasm.Opcode) (Op, bool) {
	switch op {
	case wasm.OpI32Eqz:
		return OI32Eqz, true
	case wasm.OpI64Eqz:
		return OI64Eqz, true
	case wasm.OpF32Neg:
		return OF32Neg, true
	case wasm.OpF32Abs:
		return OF32Abs, true
	case wasm.OpF32Sqrt:
		return OF32Sqrt, true
	case wasm.OpF64Neg:
		return OF64Neg, true
	case wasm.OpF64Abs:
		return OF64Abs, true
	case wasm.OpF64Sqrt:
		return OF64Sqrt, true
	case wasm.OpI32WrapI64:
		return OI32WrapI64, true
	case wasm.OpI64ExtendI32S:
		return OI64ExtendI32S, true
	case wasm.OpI64ExtendI32U:
		return OI64ExtendI32U, true
	case wasm.OpF64ConvertI32S:
		return OF64ConvertI32S, true
	case wasm.OpF64ConvertI32U:
		return OF64ConvertI32U, true
	case wasm.OpF64ConvertI64S:
		return OF64ConvertI64S, true
	case wasm.OpF64ConvertI64U:
		return OF64ConvertI64U, true
	case wasm.OpF32ConvertI32S:
		return OF32ConvertI32S, true
	case wasm.OpF32DemoteF64:
		return OF32DemoteF64, true
	case wasm.OpF64PromoteF32:
		return OF64PromoteF32, true
	case wasm.OpI32TruncF64S:
		return OI32TruncF64S, true
	case wasm.OpI32TruncF64U:
		return OI32TruncF64U, true
	case wasm.OpI64TruncF64S:
		return OI64TruncF64S, true
	case wasm.OpI64TruncF64U:
		return OI64TruncF64U, true
	case wasm.OpI32TruncF32S:
		return OI32TruncF32S, true
	case wasm.OpI32TruncF32U:
		return OI32TruncF32U, true
	case wasm.OpI64TruncF32S:
		return OI64TruncF32S, true
	case wasm.OpI64TruncF32U:
		return OI64TruncF32U, true
	}
	return 0, false
}

// LoadForm maps a wasm load opcode to (MachCode op, result type).
func LoadForm(op wasm.Opcode) (Op, wasm.ValueType) {
	switch op {
	case wasm.OpI32Load:
		return OLd32, wasm.I32
	case wasm.OpI64Load:
		return OLd64, wasm.I64
	case wasm.OpF32Load:
		return OLd32, wasm.F32
	case wasm.OpF64Load:
		return OLd64, wasm.F64
	case wasm.OpI32Load8S:
		return OLd8S32, wasm.I32
	case wasm.OpI32Load8U:
		return OLd8U32, wasm.I32
	case wasm.OpI32Load16S:
		return OLd16S32, wasm.I32
	case wasm.OpI32Load16U:
		return OLd16U32, wasm.I32
	case wasm.OpI64Load8S:
		return OLd8S64, wasm.I64
	case wasm.OpI64Load8U:
		return OLd8U64, wasm.I64
	case wasm.OpI64Load16S:
		return OLd16S64, wasm.I64
	case wasm.OpI64Load16U:
		return OLd16U64, wasm.I64
	case wasm.OpI64Load32S:
		return OLd32S64, wasm.I64
	case wasm.OpI64Load32U:
		return OLd32U64, wasm.I64
	}
	return 0, 0
}

// StoreForm maps a wasm store opcode to its MachCode op.
func StoreForm(op wasm.Opcode) Op {
	switch op {
	case wasm.OpI32Store, wasm.OpF32Store:
		return OSt32
	case wasm.OpI64Store, wasm.OpF64Store:
		return OSt64
	case wasm.OpI32Store8, wasm.OpI64Store8:
		return OSt8
	case wasm.OpI32Store16, wasm.OpI64Store16:
		return OSt16
	case wasm.OpI64Store32:
		return OSt32
	}
	return 0
}
