package engine_test

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/rt"
	"wizgo/internal/wasm"
)

// Release recycles an owned linear memory into the engine's pool once
// it has cleared the granules the instance wrote, and instances of
// different modules draw from the same pool. These tests pin that
// cross-module isolation in every executor family, and the cases in
// which a memory must not be recycled at all.

const (
	recyclePages = 16
	writerData   = 0x3000 // the writer module's data segment offset
	readerData   = 0x7000 // the reader module's data segment offset
)

// recycleFamilies is one configuration per executor family. The tiered
// configuration tiers up after two calls, so repeated writer calls run
// in both its interpreter and its compiled code.
func recycleFamilies() []engine.Config {
	return []engine.Config{
		engines.WizardINT(),
		engines.WizardSPC(),
		engines.Wasm3Like(),
		engines.WasmNowLike(),
		engines.WizardTiered(2),
	}
}

// writerOpts selects the optional parts of writerModule.
type writerOpts struct {
	host      bool // import env.nop and export callhost()
	exportMem bool // export the memory as "mem"
}

// writerModule builds a 16-page module with a data segment whose
// write(base) stores with every store width, each into its own granule
// so that one store skipping Mark leaves a granule uncleared: once at
// base (unproven addresses) and once at constant addresses (which the
// analysis proves in-bounds, selecting unchecked store variants). It
// then runs memory.fill over three granules above base and memory.copy
// across a granule boundary. grow() grows the memory by a page.
func writerModule(o writerOpts) []byte {
	b := wasm.NewBuilder()
	var nop uint32
	if o.host {
		nop = b.ImportFunc("env", "nop", wasm.FuncType{})
	}
	b.AddMemory(recyclePages, recyclePages+1)
	b.AddData(writerData, []byte("writer-data-segment"))

	w := b.NewFunc("write", sig([]wasm.ValueType{wasm.I32}, nil))
	stores := func(addr func()) {
		for k, st := range []struct {
			op    wasm.Opcode
			value func() *wasm.FuncBuilder
		}{
			{wasm.OpI32Store, func() *wasm.FuncBuilder { return w.I32Const(-1) }},
			{wasm.OpI64Store, func() *wasm.FuncBuilder { return w.I64Const(-1) }},
			{wasm.OpF32Store, func() *wasm.FuncBuilder { return w.F32Const(1.5) }},
			{wasm.OpF64Store, func() *wasm.FuncBuilder { return w.F64Const(-2.25) }},
			{wasm.OpI32Store8, func() *wasm.FuncBuilder { return w.I32Const(0x7f) }},
			{wasm.OpI32Store16, func() *wasm.FuncBuilder { return w.I32Const(0x7fff) }},
			{wasm.OpI64Store8, func() *wasm.FuncBuilder { return w.I64Const(0x55) }},
			{wasm.OpI64Store16, func() *wasm.FuncBuilder { return w.I64Const(0x5555) }},
			{wasm.OpI64Store32, func() *wasm.FuncBuilder { return w.I64Const(0x55555555) }},
		} {
			addr()
			st.value().Store(st.op, uint32(k*rt.DirtyGranule+8*k))
		}
	}
	stores(func() { w.LocalGet(0) })
	stores(func() { w.I32Const(160 * rt.DirtyGranule) })
	// fill 8 KiB from 7 bytes into granule base+10: three granules
	w.LocalGet(0).I32Const(10*rt.DirtyGranule + 7).Op(wasm.OpI32Add).I32Const(0xAB).I32Const(2 * rt.DirtyGranule).MemoryFill()
	// copy the data segment over the granule 199|200 boundary
	w.I32Const(200*rt.DirtyGranule - 5).I32Const(writerData).I32Const(19).MemoryCopy()
	w.End()
	b.Export("write", w.Idx)

	g := b.NewFunc("grow", sig(nil, []wasm.ValueType{wasm.I32}))
	g.I32Const(1).MemoryGrow().End()
	b.Export("grow", g.Idx)

	if o.host {
		h := b.NewFunc("callhost", wasm.FuncType{})
		h.Call(nop).End()
		b.Export("callhost", h.Idx)
	}
	if o.exportMem {
		b.ExportMemory("mem")
	}
	return b.Encode()
}

// readerModule is a different 16-page module, with no maximum and its
// own data segment.
func readerModule() []byte {
	b := wasm.NewBuilder()
	b.AddMemory(recyclePages, 0)
	b.AddData(readerData, []byte("reader"))
	f := b.NewFunc("size", sig(nil, []wasm.ValueType{wasm.I32}))
	f.MemorySize().End()
	b.Export("size", f.Idx)
	return b.Encode()
}

func nopLinker() *engine.Linker {
	return engine.NewLinker().Func("env", "nop", wasm.FuncType{},
		func(*rt.Context, []uint64, []uint64) error { return nil })
}

// dataPtr identifies a memory's buffer.
func dataPtr(m *rt.Memory) *byte { return &m.Data[0] }

// writeAll calls write at four bases whose granules do not overlap, so
// every call's stores are the only writes to their granules; the calls
// also tier the tiered configuration up mid-sequence.
func writeAll(t *testing.T, inst *engine.Instance) {
	t.Helper()
	for i := int32(0); i < 4; i++ {
		base := i*32*rt.DirtyGranule + 4*i
		if _, err := inst.Call("write", wasm.ValI32(base)); err != nil {
			t.Fatalf("write(%#x): %v", base, err)
		}
	}
	if n := inst.RT.Memory.DirtyGranules(); n < 50 {
		t.Fatalf("writer dirtied %d granules, want at least 50", n)
	}
}

// assertReaderMemory checks that inst holds readerModule's post-link
// memory: all-zero outside its own data segment.
func assertReaderMemory(t *testing.T, inst *engine.Instance) {
	t.Helper()
	mem := inst.RT.Memory
	if mem.Pages() != recyclePages || mem.MaxPages != wasm.MaxPages {
		t.Fatalf("reader memory: %d pages, max %d", mem.Pages(), mem.MaxPages)
	}
	want := make([]byte, len(mem.Data))
	copy(want[readerData:], "reader")
	if !bytes.Equal(mem.Data, want) {
		for i := range want {
			if mem.Data[i] != want[i] {
				t.Fatalf("reader memory byte %#x = %#x, want %#x: a released instance's write leaked", i, mem.Data[i], want[i])
			}
		}
	}
}

// TestRecycledMemoryIsolation: a writer instance dirties its memory with
// every store kind, then is Released; a reader instance of a different
// module on the same engine must see only its own data segment. The
// cycle repeats until the reader has provably received the writer's
// buffer (sync.Pool gives no guarantee per attempt), checking the
// memory on every attempt.
func TestRecycledMemoryIsolation(t *testing.T) {
	for _, cfg := range recycleFamilies() {
		t.Run(cfg.Name, func(t *testing.T) {
			e := engine.New(cfg, nil)
			writer, err := e.Compile(writerModule(writerOpts{}))
			if err != nil {
				t.Fatal(err)
			}
			reader, err := e.Compile(readerModule())
			if err != nil {
				t.Fatal(err)
			}
			reused := false
			for attempt := 0; attempt < 20 && !reused; attempt++ {
				w, err := writer.Instantiate()
				if err != nil {
					t.Fatal(err)
				}
				writeAll(t, w)
				buf := dataPtr(w.RT.Memory)
				w.Release()
				if w.RT.Memory != nil {
					t.Fatal("Release kept a recyclable memory")
				}
				r, err := reader.Instantiate()
				if err != nil {
					t.Fatal(err)
				}
				assertReaderMemory(t, r)
				reused = dataPtr(r.RT.Memory) == buf
				r.Release()
			}
			if !reused {
				t.Fatal("the reader never received the writer's released buffer")
			}
		})
	}
}

// TestMemoryNotRecycled: Release must keep (never pool) a memory it
// cannot vouch for. Each case leaves the memory on the instance, and a
// following instantiation must not receive its buffer.
func TestMemoryNotRecycled(t *testing.T) {
	cases := []struct {
		name string
		opts writerOpts
		// prepare runs the writer and returns the instance to Release.
		prepare func(t *testing.T, cm *engine.CompiledModule) *engine.Instance
	}{
		{"exported", writerOpts{exportMem: true}, func(t *testing.T, cm *engine.CompiledModule) *engine.Instance {
			inst := instantiateAndWrite(t, cm)
			if err := engine.NewLinker().DefineInstance("w", inst); err != nil {
				t.Fatal(err)
			}
			return inst
		}},
		{"poisoned", writerOpts{}, func(t *testing.T, cm *engine.CompiledModule) *engine.Instance {
			// A host panic both poisons and MarkAlls; set only the
			// poison bit so this case tests that rule alone.
			inst := instantiateAndWrite(t, cm)
			inst.RT.Poisoned = true
			return inst
		}},
		{"grown", writerOpts{}, func(t *testing.T, cm *engine.CompiledModule) *engine.Instance {
			inst := instantiateAndWrite(t, cm)
			callI32(t, inst, "grow", recyclePages)
			return inst
		}},
		{"host-call", writerOpts{host: true}, func(t *testing.T, cm *engine.CompiledModule) *engine.Instance {
			inst := instantiateAndWrite(t, cm)
			if _, err := inst.Call("callhost"); err != nil {
				t.Fatal(err)
			}
			return inst
		}},
		{"pool-discarded", writerOpts{}, func(t *testing.T, cm *engine.CompiledModule) *engine.Instance {
			// A pooled instance's tracking was re-baselined to the
			// pool's snapshot; a Put after Close discards (Releases) it.
			pool := cm.NewPool(1)
			inst, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			writeAll(t, inst)
			pool.Close()
			pool.Put(inst)
			return inst
		}},
	}
	for _, cfg := range recycleFamilies() {
		for _, tc := range cases {
			t.Run(cfg.Name+"/"+tc.name, func(t *testing.T) {
				e := engine.New(cfg, nopLinker())
				writer, err := e.Compile(writerModule(tc.opts))
				if err != nil {
					t.Fatal(err)
				}
				reader, err := e.Compile(readerModule())
				if err != nil {
					t.Fatal(err)
				}
				inst := tc.prepare(t, writer)
				mem := inst.RT.Memory
				inst.Release() // the pool-discarded case already did; latched
				if inst.RT.Memory != mem {
					t.Fatal("Release recycled a memory it cannot vouch for")
				}
				for i := 0; i < 3; i++ {
					r, err := reader.Instantiate()
					if err != nil {
						t.Fatal(err)
					}
					if &r.RT.Memory.Data[0] == &mem.Data[0] {
						t.Fatal("a later instance received the kept buffer")
					}
					assertReaderMemory(t, r)
				}
			})
		}
	}
}

func instantiateAndWrite(t *testing.T, cm *engine.CompiledModule) *engine.Instance {
	t.Helper()
	inst, err := cm.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, inst)
	return inst
}

// TestReleaseThenResetReacquiresMemory: Reset re-arms a Released
// instance with a memory restored to the snapshot, even though Release
// handed the old buffer back to the pool.
func TestReleaseThenResetReacquiresMemory(t *testing.T) {
	for _, cfg := range recycleFamilies() {
		t.Run(cfg.Name, func(t *testing.T) {
			e := engine.New(cfg, nil)
			cm, err := e.Compile(writerModule(writerOpts{}))
			if err != nil {
				t.Fatal(err)
			}
			inst, err := cm.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			snap := inst.Snapshot()
			want := append([]byte(nil), inst.RT.Memory.Data...)
			writeAll(t, inst)
			inst.Release()
			if inst.RT.Memory != nil {
				t.Fatal("Release kept a recyclable memory")
			}
			for round := 0; round < 2; round++ {
				if err := inst.Reset(snap); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(inst.RT.Memory.Data, want) {
					t.Fatalf("round %d: reset memory differs from the snapshot", round)
				}
				writeAll(t, inst) // the re-armed instance runs
			}
			// Tracking is now relative to the snapshot, not zero: Release
			// must keep the memory.
			inst.Release()
			if inst.RT.Memory == nil {
				t.Fatal("Release recycled a memory re-baselined by Reset")
			}
		})
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestInstantiateReleaseAllocations is the deterministic guard on the
// recycling: with the collector off, steady-state Instantiate + Release
// of a 16-page module must not allocate its 1 MiB memory again.
func TestInstantiateReleaseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops random Puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := engines.WizardSPC()
	cfg.StackSlots = 1 << 12 // keep the value-stack pool out of the count
	cm, err := engine.New(cfg, nil).Compile(writerModule(writerOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		inst, err := cm.Instantiate()
		if err != nil {
			t.Fatal(err)
		}
		inst.Release()
	}
	cycle() // warm the pools
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / n; perOp >= 64<<10 {
		t.Fatalf("Instantiate + Release allocated %d B/op, want < 64 KiB", perOp)
	}
}
