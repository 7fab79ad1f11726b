package copypatch_test

import (
	"testing"

	"wizgo/internal/copypatch"
	"wizgo/internal/difftest"
	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/mach"
	"wizgo/internal/rt"
	"wizgo/internal/spc"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
	"wizgo/internal/workloads"
)

func build(t *testing.T) (*wasm.Module, []validate.FuncInfo) {
	t.Helper()
	b := wasm.NewBuilder()
	b.AddMemory(1, 1)
	f := b.NewFunc("f", wasm.FuncType{
		Params:  []wasm.ValueType{wasm.I32},
		Results: []wasm.ValueType{wasm.I32},
	})
	acc := f.AddLocal(wasm.I32)
	f.Loop(wasm.BlockEmpty)
	f.LocalGet(acc).LocalGet(0).Op(wasm.OpI32Add).LocalSet(acc)
	f.LocalGet(0).I32Const(1).Op(wasm.OpI32Sub).LocalTee(0)
	f.I32Const(0).Op(wasm.OpI32GtS)
	f.BrIf(0)
	f.End()
	f.LocalGet(acc)
	f.End()
	b.Export("f", f.Idx)
	m := b.Module()
	infos, err := validate.Module(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, infos
}

// TestTemplateCodeShape: the templates keep the top operands in the
// fixed scratch registers r0–r2, so no operand of the loop body goes
// through its value-stack slot, and the frame is canonical (nothing
// cached) at the loop checkpoint. With no register allocation across
// instructions the templates still emit more code than SPC.
func TestTemplateCodeShape(t *testing.T) {
	m, infos := build(t)
	code, err := copypatch.Compile(m, 0, &m.Funcs[0], &infos[0])
	if err != nil {
		t.Fatal(err)
	}
	spcCode, err := spc.Compile(m, 0, &m.Funcs[0], &infos[0], nil, spc.Wizard())
	if err != nil {
		t.Fatal(err)
	}
	// Templates emit strictly more instructions than the abstract-
	// interpretation compiler (the code-quality price of compile speed).
	if len(code.Instrs) <= len(spcCode.Instrs) {
		t.Errorf("template code (%d) should be larger than spc code (%d)",
			len(code.Instrs), len(spcCode.Instrs))
	}
	nLocals := len(infos[0].LocalTypes)
	checkpoints := 0
	for _, in := range code.Instrs {
		switch in.Op {
		case mach.OLoadSlot, mach.OConst:
			if in.A > 2 {
				t.Errorf("template used register r%d: %v", in.A, in)
			}
		case mach.OStoreSlot:
			if in.B > 2 {
				t.Errorf("template used register r%d: %v", in.B, in)
			}
			if int(in.Imm) >= nLocals {
				t.Errorf("operand spilled to its slot: %v\n%s", in, code.Disassemble())
			}
		case mach.OGen1, mach.OGen2:
			t.Errorf("generic op where a typed form exists: %v", in)
		case mach.OCheckPoint, mach.OCheckPointNoPoll:
			checkpoints++
			if int(in.A) != nLocals {
				t.Errorf("checkpoint frame height %d, want %d (empty operand stack)", in.A, nLocals)
			}
		}
	}
	if checkpoints != 1 || len(code.OSREntries) != 1 {
		t.Errorf("loop checkpoint missing: %d checkpoints, OSR entries %v", checkpoints, code.OSREntries)
	}
}

func TestTemplateEndToEnd(t *testing.T) {
	m, _ := build(t)
	inst, err := engine.New(engines.WasmNowLike(), nil).Instantiate(wasm.Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	got, err := inst.Call("f", wasm.ValI32(100))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].I32() != 5050 {
		t.Errorf("sum 1..100 = %d", got[0].I32())
	}
}

// machOps runs the module's _start under cfg in counting mode and
// returns the dispatched machine ops.
func machOps(t *testing.T, cfg engine.Config, bytes []byte) uint64 {
	t.Helper()
	inst, err := engine.New(cfg, nil).Instantiate(bytes)
	if err != nil {
		t.Fatal(err)
	}
	inst.Ctx.CountStats = true
	if _, err := inst.Call("_start"); err != nil {
		t.Fatal(err)
	}
	return inst.Ctx.Stats.MachOps
}

// TestDispatchCounts gates the templates' code quality on the executor's
// counting mode, which is deterministic. On polybench gemm, 2mm and 3mm
// wasm-now must dispatch at most 0.45x the machine ops of templates that
// round-trip every operand through its slot (the counts below), and no
// fewer than wizeng-spc, whose register allocation keeps the paper's
// ordering with SPC's code the best.
func TestDispatchCounts(t *testing.T) {
	slotRoundTrip := map[string]uint64{"gemm": 2089072, "2mm": 3877155, "3mm": 5759097}
	seen := 0
	for _, it := range workloads.PolyBench() {
		limit, ok := slotRoundTrip[it.Name]
		if !ok {
			continue
		}
		seen++
		now := machOps(t, engines.WasmNowLike(), it.Bytes)
		floor := machOps(t, engines.WizardSPC(), it.Bytes)
		t.Logf("%s: wasm-now %d mach ops (%.2fx slot round-trip), wizeng-spc %d",
			it.Name, now, float64(now)/float64(limit), floor)
		if float64(now) > 0.45*float64(limit) {
			t.Errorf("%s: wasm-now dispatched %d mach ops, above 0.45 x %d", it.Name, now, limit)
		}
		if now < floor {
			t.Errorf("%s: wasm-now dispatched %d mach ops, fewer than wizeng-spc's %d", it.Name, now, floor)
		}
	}
	if seen != len(slotRoundTrip) {
		t.Fatalf("found %d of %d polybench items", seen, len(slotRoundTrip))
	}
}

// frameModule keeps cached operands live across every kind of frame
// boundary the flush rules cover: a call, a call_indirect, an if/else,
// br, br_if, br_table and return edges carrying a value over dead
// operands, a select over
// three cached operands with more beneath them, memory.fill,
// memory.copy and memory.grow, and a loop entered with cached operands
// that writes memory and a global on every trip.
func frameModule() difftest.Generated {
	i32, i64 := wasm.I32, wasm.I64
	b := wasm.NewBuilder()
	b.AddMemory(1, 2)
	g := b.AddGlobal(i32, true, wasm.ValI32(0))

	twice := b.NewFunc("twice", wasm.FuncType{Params: []wasm.ValueType{i32}, Results: []wasm.ValueType{i32}})
	twice.GlobalGet(g).LocalGet(0).Op(wasm.OpI32Add).GlobalSet(g)
	twice.LocalGet(0).I32Const(2).Op(wasm.OpI32Mul).I32Const(1).Op(wasm.OpI32Add)

	un64 := wasm.FuncType{Params: []wasm.ValueType{i64}, Results: []wasm.ValueType{i64}}
	sq := b.NewFunc("sq", un64)
	sq.LocalGet(0).LocalGet(0).Op(wasm.OpI64Mul)
	neg := b.NewFunc("neg", un64)
	neg.I64Const(0).LocalGet(0).Op(wasm.OpI64Sub)
	b.AddTable(2)
	b.AddElem(0, []uint32{sq.Idx, neg.Idx})

	f := b.NewFunc("call", wasm.FuncType{Params: []wasm.ValueType{i32}, Results: []wasm.ValueType{i32}})
	f.I32Const(7).LocalGet(0).I32Const(3)
	f.LocalGet(0).Call(twice.Idx) // the push spills 7; the call flushes a and 3
	f.Op(wasm.OpI32Add).Op(wasm.OpI32Mul).Op(wasm.OpI32Sub)
	b.Export("call", f.Idx)

	f = b.NewFunc("call_indirect", wasm.FuncType{Params: []wasm.ValueType{i64, i32}, Results: []wasm.ValueType{i64}})
	f.I64Const(5).LocalGet(0).LocalGet(0).LocalGet(1).CallIndirect(b.AddType(un64))
	f.Op(wasm.OpI64Add).Op(wasm.OpI64Mul)
	b.Export("call_indirect", f.Idx)

	f = b.NewFunc("br_if", wasm.FuncType{Params: []wasm.ValueType{i32}, Results: []wasm.ValueType{i32}})
	f.Block(wasm.BlockVal(i32))
	f.I32Const(100)                                     // dead on the taken edge
	f.LocalGet(0).I32Const(3).Op(wasm.OpI32Mul)         // carried
	f.LocalGet(0).I32Const(1).Op(wasm.OpI32And).BrIf(0) // condition
	f.Op(wasm.OpI32Add)
	f.End()
	f.I32Const(1).Op(wasm.OpI32Add)
	b.Export("br_if", f.Idx)

	f = b.NewFunc("br", wasm.FuncType{Params: []wasm.ValueType{i32}, Results: []wasm.ValueType{i32}})
	res := f.AddLocal(i32)
	f.I32Const(7) // cached below the block
	f.Block(wasm.BlockVal(i32))
	f.LocalGet(0).I32Const(3).Op(wasm.OpI32Mul).Br(0)
	f.End()
	f.Op(wasm.OpI32Sub)
	f.Block(wasm.BlockVal(i32))
	f.I32Const(100)                             // dead on the edge
	f.LocalGet(0).I32Const(5).Op(wasm.OpI32Mul) // carried
	f.Br(0)
	f.End()
	f.Op(wasm.OpI32Add)
	f.I32Const(200).LocalGet(0).If(wasm.BlockVal(i32)) // 200 live below the if
	f.LocalGet(0).I32Const(1).Op(wasm.OpI32Add)
	f.Else()
	f.I32Const(5)
	f.End()
	f.Op(wasm.OpI32Add).Op(wasm.OpI32Add).LocalSet(res)
	f.I32Const(100).LocalGet(res).Op(wasm.OpReturn) // 100 dead on the return
	b.Export("br", f.Idx)

	f = b.NewFunc("br_table", wasm.FuncType{Params: []wasm.ValueType{i32}, Results: []wasm.ValueType{i32}})
	f.Block(wasm.BlockVal(i32)).Block(wasm.BlockVal(i32)).Block(wasm.BlockVal(i32))
	f.I32Const(100)                             // dead on every edge
	f.LocalGet(0).I32Const(3).Op(wasm.OpI32Mul) // carried
	f.LocalGet(0).BrTable([]uint32{0, 1}, 2)
	f.End().I32Const(1).Op(wasm.OpI32Add)
	f.End().I32Const(2).Op(wasm.OpI32Mul)
	f.End()
	b.Export("br_table", f.Idx)

	f = b.NewFunc("select", wasm.FuncType{Params: []wasm.ValueType{i32, i32, i32}, Results: []wasm.ValueType{i32}})
	f.I32Const(1000).I32Const(200).I32Const(300).Op(wasm.OpDrop)
	f.LocalGet(0).LocalGet(1).LocalGet(2).Op(wasm.OpSelect)
	f.Op(wasm.OpI32Add).Op(wasm.OpI32Add)
	b.Export("select", f.Idx)

	f = b.NewFunc("memory", wasm.FuncType{Params: []wasm.ValueType{i32}, Results: []wasm.ValueType{i32}})
	f.I32Const(7) // live under every bulk operation
	f.I32Const(100).LocalGet(0).I32Const(16).MemoryFill()
	f.I32Const(200).I32Const(96).I32Const(16).MemoryCopy()
	f.I32Const(1).MemoryGrow().MemorySize().Op(wasm.OpI32Add)
	f.Op(wasm.OpI32Add)
	f.I32Const(204).Load(wasm.OpI32Load, 0).Op(wasm.OpI32Add)
	b.Export("memory", f.Idx)

	f = b.NewFunc("loop", wasm.FuncType{Params: []wasm.ValueType{i32}, Results: []wasm.ValueType{i32}})
	i := f.AddLocal(i32)
	f.I32Const(11).I32Const(22).LocalGet(0) // cached when the loop is entered
	f.Loop(wasm.BlockFunc(b.AddType(wasm.FuncType{Params: []wasm.ValueType{i32}, Results: []wasm.ValueType{i32}})))
	f.LocalSet(i)
	f.LocalGet(i).I32Const(2).Op(wasm.OpI32Shl).LocalGet(i).Store(wasm.OpI32Store, 0)
	f.GlobalGet(g).LocalGet(i).Op(wasm.OpI32Add).GlobalSet(g)
	f.LocalGet(i).I32Const(1).Op(wasm.OpI32Sub) // carried around the back-edge
	f.LocalGet(i).I32Const(1).Op(wasm.OpI32GtS).BrIf(0)
	f.End()
	f.Op(wasm.OpI32Add).Op(wasm.OpI32Add)
	b.Export("loop", f.Idx)

	return difftest.Generated{
		Bytes: b.Encode(),
		Calls: []difftest.Call{
			{Export: "call", Args: []wasm.Value{wasm.ValI32(5)}},
			{Export: "call", Args: []wasm.Value{wasm.ValI32(-3)}},
			{Export: "call_indirect", Args: []wasm.Value{wasm.ValI64(7), wasm.ValI32(0)}},
			{Export: "call_indirect", Args: []wasm.Value{wasm.ValI64(7), wasm.ValI32(1)}},
			{Export: "call_indirect", Args: []wasm.Value{wasm.ValI64(7), wasm.ValI32(2)}},
			{Export: "br_if", Args: []wasm.Value{wasm.ValI32(4)}},
			{Export: "br_if", Args: []wasm.Value{wasm.ValI32(5)}},
			{Export: "br", Args: []wasm.Value{wasm.ValI32(0)}},
			{Export: "br", Args: []wasm.Value{wasm.ValI32(6)}},
			{Export: "br_table", Args: []wasm.Value{wasm.ValI32(0)}},
			{Export: "br_table", Args: []wasm.Value{wasm.ValI32(1)}},
			{Export: "br_table", Args: []wasm.Value{wasm.ValI32(9)}},
			{Export: "select", Args: []wasm.Value{wasm.ValI32(1), wasm.ValI32(2), wasm.ValI32(0)}},
			{Export: "select", Args: []wasm.Value{wasm.ValI32(1), wasm.ValI32(2), wasm.ValI32(5)}},
			{Export: "memory", Args: []wasm.Value{wasm.ValI32(0x5a)}},
			{Export: "memory", Args: []wasm.Value{wasm.ValI32(0x3c)}},
			{Export: "loop", Args: []wasm.Value{wasm.ValI32(300)}},
		},
	}
}

// TestCanonicalFrame checks the cache flush rules against the in-place
// interpreter through the differential oracle (results, trap kinds,
// final memory and globals): once with unlimited fuel, and once under a
// budget that traps the loop at its header.
func TestCanonicalFrame(t *testing.T) {
	g := frameModule()
	for _, fuel := range []int64{0, 100} {
		o := difftest.NewOracleOver([]engine.Config{
			engines.WizardINT(), engines.WasmNowLike(), engines.WazeroLike(),
		})
		o.Fuel = fuel
		outs, d := o.Run(g)
		if d != nil {
			t.Fatalf("fuel %d: %v\n%s", fuel, d, difftest.OutcomeTable(outs))
		}
		for _, out := range outs {
			if out.Outcome.Rejected || out.Outcome.Interrupted {
				t.Fatalf("fuel %d: %s did not run the module: %+v", fuel, out.Config, out.Outcome)
			}
		}
		calls := outs[0].Outcome.Calls
		if c := calls[4]; !c.Trapped || c.Trap != rt.TrapOOBTable {
			t.Errorf("fuel %d: call_indirect past the table: %+v", fuel, c)
		}
		loop := calls[len(calls)-1]
		switch {
		case fuel == 0 && loop.Trapped:
			t.Errorf("loop trapped without a fuel budget: %+v", loop)
		case fuel > 0 && (!loop.Trapped || loop.Trap != rt.TrapFuelExhausted):
			t.Errorf("loop did not exhaust a budget of %d: %+v", fuel, loop)
		}
	}
}
