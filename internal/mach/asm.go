package mach

import "fmt"

// Asm is the assembler the compilers emit through: an append-only
// instruction buffer with label binding and forward-reference patching,
// the analog of a machine-code assembler with a relocation list.
type Asm struct {
	code   []Instr
	wasmPC []int32
	curPC  int32 // wasm pc attributed to instructions being emitted
	tables [][]int32

	// labels[i] is the bound machine pc, or -1 while unbound.
	labels []int
	// fixups maps label -> list of instruction indices whose Imm is the
	// label target.
	fixups map[int][]int
	// tableFixups maps label -> list of (table, slot) positions.
	tableFixups map[int][][2]int
}

// NewAsm returns an empty assembler.
func NewAsm() *Asm {
	return &Asm{fixups: make(map[int][]int), tableFixups: make(map[int][][2]int)}
}

// SetWasmPC sets the bytecode offset attributed to subsequently emitted
// instructions (for trap attribution and deopt).
func (a *Asm) SetWasmPC(pc int) { a.curPC = int32(pc) }

// Pos returns the current machine pc (the index of the next instruction).
func (a *Asm) Pos() int { return len(a.code) }

// Emit appends an instruction and returns its machine pc.
func (a *Asm) Emit(in Instr) int {
	a.code = append(a.code, in)
	a.wasmPC = append(a.wasmPC, a.curPC)
	return len(a.code) - 1
}

// NewLabel allocates an unbound label.
func (a *Asm) NewLabel() int {
	a.labels = append(a.labels, -1)
	return len(a.labels) - 1
}

// Bind binds label to the current position and patches pending fixups.
func (a *Asm) Bind(label int) {
	if a.labels[label] != -1 {
		panic(fmt.Sprintf("mach.Asm: label %d bound twice", label))
	}
	pos := len(a.code)
	a.labels[label] = pos
	for _, idx := range a.fixups[label] {
		a.code[idx].Imm = uint64(pos)
	}
	delete(a.fixups, label)
	for _, ts := range a.tableFixups[label] {
		a.tables[ts[0]][ts[1]] = int32(pos)
	}
	delete(a.tableFixups, label)
}

// Bound reports whether the label has been bound (loop headers are bound
// before their branches; forward labels after).
func (a *Asm) Bound(label int) bool { return a.labels[label] != -1 }

// Referenced reports whether a branch or br_table entry is waiting for
// the unbound label.
func (a *Asm) Referenced(label int) bool {
	return len(a.fixups[label]) > 0 || len(a.tableFixups[label]) > 0
}

// Target returns the pc of a bound label.
func (a *Asm) Target(label int) int { return a.labels[label] }

// EmitBranch emits a branch instruction whose Imm is the label target,
// recording a fixup when the label is not yet bound.
func (a *Asm) EmitBranch(in Instr, label int) int {
	if a.labels[label] != -1 {
		in.Imm = uint64(a.labels[label])
		return a.Emit(in)
	}
	idx := a.Emit(in)
	a.fixups[label] = append(a.fixups[label], idx)
	return idx
}

// NewTable allocates a br_table target vector whose entries reference
// the given labels, patched as they bind. Returns the table index.
func (a *Asm) NewTable(labels []int) int {
	t := make([]int32, len(labels))
	tidx := len(a.tables)
	a.tables = append(a.tables, t)
	for i, l := range labels {
		if a.labels[l] != -1 {
			t[i] = int32(a.labels[l])
		} else {
			a.tableFixups[l] = append(a.tableFixups[l], [2]int{tidx, i})
		}
	}
	return tidx
}

// Finish seals the assembly into a Code object. All labels referenced by
// branches must be bound.
func (a *Asm) Finish() (*Code, error) {
	if len(a.fixups) > 0 || len(a.tableFixups) > 0 {
		return nil, fmt.Errorf("mach.Asm: %d labels left unbound", len(a.fixups)+len(a.tableFixups))
	}
	return &Code{
		Instrs: a.code,
		WasmPC: a.wasmPC,
		Tables: a.tables,
		// One MachCode instruction stands in for one native
		// instruction; 4 bytes approximates RISC-style encoding for
		// compile-throughput accounting.
		CodeBytes: len(a.code) * 4,
	}, nil
}
