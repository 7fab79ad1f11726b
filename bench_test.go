// Package wizgo's root benchmark suite regenerates every figure of the
// paper as Go benchmarks. Each BenchmarkFigN corresponds to a figure;
// run a single one with e.g.
//
//	go test -bench 'Fig4' -benchmem
//
// The full tables (all 78 line items, suite means with min/max bars) are
// produced by cmd/wizgo-bench; these benchmarks exercise the same
// measurement paths on one representative line item per suite so the
// whole suite completes in minutes. Custom metrics:
//
//	speedup-vs-interp   main-time ratio (Figures 4, 9, 10)
//	rel-time-vs-notags  tagging overhead ratio (Figure 5)
//	probe-overhead      instrumentation slowdown (Figure 6)
//	MB/s                compile throughput via b.SetBytes (Figure 8)
package wizgo

import (
	"fmt"
	"testing"
	"time"

	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/harness"
	"wizgo/internal/heap"
	"wizgo/internal/monitors"
	"wizgo/internal/opt"
	"wizgo/internal/rt"
	"wizgo/internal/spc"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
	"wizgo/internal/workloads"
)

// reps returns one representative item per suite (kept small so the
// whole benchmark suite runs quickly).
func reps() []workloads.Item {
	return []workloads.Item{
		workloads.PolyBench()[0], // gemm
		workloads.Libsodium()[0], // stream_chacha20
		workloads.Ostrich()[3],   // crc
	}
}

// mainTime runs _start once on a pre-instantiated fresh engine.
func mainTime(b *testing.B, cfg engine.Config, bytes []byte) time.Duration {
	b.Helper()
	s, err := harness.RunOnce(cfg, bytes)
	if err != nil {
		b.Fatal(err)
	}
	return s.Main
}

func benchMain(b *testing.B, cfg engine.Config, item workloads.Item, baseline engine.Config) {
	b.Helper()
	var base time.Duration
	if baseline.Name != "" {
		base = mainTime(b, baseline, item.Bytes)
	}
	inst, err := engine.New(cfg, nil).Instantiate(item.Bytes)
	if err != nil {
		b.Fatal(err)
	}
	start, _ := inst.RT.FuncByName("_start")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.CallFunc(start); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if base != 0 {
		per := b.Elapsed() / time.Duration(b.N)
		b.ReportMetric(float64(base)/float64(per), "speedup-vs-interp")
	}
}

// BenchmarkFig4 measures the optimization ablations of Wizard-SPC.
func BenchmarkFig4(b *testing.B) {
	interp := engines.WizardINT()
	for _, cfg := range engines.Figure4Variants() {
		for _, item := range reps() {
			b.Run(cfg.Name+"/"+item.Name, func(b *testing.B) {
				benchMain(b, cfg, item, interp)
			})
		}
	}
}

// BenchmarkFig5 measures value-tagging configurations against notags.
func BenchmarkFig5(b *testing.B) {
	variants := engines.Figure5Variants()
	notags := variants[0]
	for _, cfg := range variants[1:] {
		for _, item := range reps() {
			b.Run(cfg.Name+"/"+item.Name, func(b *testing.B) {
				base := mainTime(b, notags, item.Bytes)
				inst, err := engine.New(cfg, nil).Instantiate(item.Bytes)
				if err != nil {
					b.Fatal(err)
				}
				start, _ := inst.RT.FuncByName("_start")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := inst.CallFunc(start); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				per := b.Elapsed() / time.Duration(b.N)
				b.ReportMetric(float64(per)/float64(base), "rel-time-vs-notags")
			})
		}
	}
}

// BenchmarkFig6 measures branch-monitor overhead for int/jit/optjit.
func BenchmarkFig6(b *testing.B) {
	cfgs := []struct {
		name string
		cfg  engine.Config
	}{
		{"int", engines.WizardINT()},
		{"jit", engines.SPCVariant("jit-probes", func(c *spc.Config) { c.OptProbes = false })},
		{"optjit", engines.WizardSPC()},
	}
	for _, c := range cfgs {
		for _, item := range reps() {
			b.Run(c.name+"/"+item.Name, func(b *testing.B) {
				unprobed := mainTime(b, c.cfg, item.Bytes)
				inst, err := engine.New(c.cfg, nil).Instantiate(item.Bytes)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := monitors.AttachBranchMonitor(inst); err != nil {
					b.Fatal(err)
				}
				start, _ := inst.RT.FuncByName("_start")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := inst.CallFunc(start); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				per := b.Elapsed() / time.Duration(b.N)
				b.ReportMetric(float64(per-unprobed)/float64(unprobed), "probe-overhead")
			})
		}
	}
}

// BenchmarkFig7 measures total execution time of the six baselines.
func BenchmarkFig7(b *testing.B) {
	for _, cfg := range engines.BaselineShootout() {
		for _, item := range reps() {
			b.Run(cfg.Name+"/"+item.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := harness.RunOnce(cfg, item.Bytes); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig8 measures compile throughput (MB/s via SetBytes): decode,
// validate, and compile a fresh instance each iteration without running.
func BenchmarkFig8(b *testing.B) {
	for _, cfg := range engines.BaselineShootout() {
		for _, item := range reps() {
			b.Run(cfg.Name+"/"+item.Name, func(b *testing.B) {
				b.SetBytes(int64(len(item.Bytes)))
				for i := 0; i < b.N; i++ {
					if _, err := engine.New(cfg, nil).Instantiate(item.BytesM0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig9 reports both SQ-space coordinates per baseline compiler.
func BenchmarkFig9(b *testing.B) {
	interp := engines.WizardINT()
	item := reps()[0]
	for _, cfg := range engines.BaselineShootout() {
		b.Run(cfg.Name, func(b *testing.B) {
			base := mainTime(b, interp, item.Bytes)
			var setup time.Duration
			var main time.Duration
			for i := 0; i < b.N; i++ {
				s, err := harness.RunOnce(cfg, item.Bytes)
				if err != nil {
					b.Fatal(err)
				}
				setup += s.Setup
				main += s.Main
			}
			b.ReportMetric(float64(len(item.Bytes))/1e6/(setup.Seconds()/float64(b.N)), "setup-MB/s")
			b.ReportMetric(float64(base)/(float64(main)/float64(b.N)), "speedup-vs-interp")
		})
	}
}

// BenchmarkFig10 reports SQ-space coordinates for all 18 tiers using the
// adjusted-time methodology.
func BenchmarkFig10(b *testing.B) {
	item := reps()[0]
	interp := engines.WizardINT()
	base := mainTime(b, interp, item.Bytes)
	for _, cfg := range engines.SQSpaceTiers() {
		b.Run(cfg.Name, func(b *testing.B) {
			startup, err := harness.StartupTime(cfg, 5)
			if err != nil {
				b.Fatal(err)
			}
			var adj, setup time.Duration
			for i := 0; i < b.N; i++ {
				at, err := harness.MeasureAdjusted(cfg, item, 1, startup)
				if err != nil {
					b.Fatal(err)
				}
				adj += at.Adjusted
				setup += at.SetupUB
			}
			setupSec := setup.Seconds() / float64(b.N)
			if setupSec <= 0 {
				setupSec = 1e-9
			}
			b.ReportMetric(float64(len(item.Bytes))/1e6/setupSec, "setup-MB/s")
			b.ReportMetric(float64(base)/(float64(adj)/float64(b.N)), "adj-speedup-vs-interp")
		})
	}
}

// BenchmarkCompileOnly isolates single-pass compilation itself (no
// decode/validate), the purest form of Figure 8's numerator.
func BenchmarkCompileOnly(b *testing.B) {
	item := reps()[0]
	m, err := wasm.Decode(item.Bytes)
	if err != nil {
		b.Fatal(err)
	}
	infos, err := validate.Module(m)
	if err != nil {
		b.Fatal(err)
	}
	bodyBytes := 0
	for _, f := range m.Funcs {
		bodyBytes += len(f.Body)
	}
	b.Run("wizard-spc", func(b *testing.B) {
		b.SetBytes(int64(bodyBytes))
		for i := 0; i < b.N; i++ {
			for fi := range m.Funcs {
				if _, err := spc.Compile(m, uint32(fi), &m.Funcs[fi], &infos[fi], nil, spc.Wizard()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("opt-3pass", func(b *testing.B) {
		b.SetBytes(int64(bodyBytes))
		cfg := opt.Config{PinLocals: 16, Passes: 3}
		for i := 0; i < b.N; i++ {
			for fi := range m.Funcs {
				if _, err := opt.Compile(m, uint32(fi), &m.Funcs[fi], &infos[fi], nil, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationSnapshot measures the abstract-state snapshot cost
// that DESIGN.md calls out: the memcpy strategy on a frame of the given
// size — the quantity the paper says must stay linear to avoid JIT
// bombs.
func BenchmarkAblationSnapshot(b *testing.B) {
	build := func(locals int) []byte {
		bb := wasm.NewBuilder()
		f := bb.NewFunc("f", wasm.FuncType{Results: []wasm.ValueType{wasm.I32}})
		for i := 0; i < locals; i++ {
			f.AddLocal(wasm.I32)
		}
		// A chain of ifs forces a snapshot per split.
		for i := 0; i < 32; i++ {
			f.I32Const(int32(i)).If(wasm.BlockEmpty).End()
		}
		f.I32Const(0)
		f.End()
		bb.Export("f", f.Idx)
		return bb.Encode()
	}
	for _, locals := range []int{8, 256, 4096} {
		bytes := build(locals)
		m, _ := wasm.Decode(bytes)
		infos, err := validate.Module(m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(locals), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := spc.Compile(m, 0, &m.Funcs[0], &infos[0], nil, spc.Wizard()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n < 100:
		return "locals-8"
	case n < 1000:
		return "locals-256"
	default:
		return "locals-4096"
	}
}

// BenchmarkAblationOSR measures tiered execution against pure tiers on a
// hot loop: the tiered engine should land near the JIT, far above the
// interpreter.
func BenchmarkAblationOSR(b *testing.B) {
	item := reps()[1]
	for _, cfg := range []engine.Config{
		engines.WizardINT(), engines.WizardTiered(100), engines.WizardSPC(),
	} {
		b.Run(cfg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := harness.RunOnce(cfg, item.Bytes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInterpreterDispatch isolates raw interpreter throughput on a
// pure arithmetic loop, for regression tracking of the hot loop.
func BenchmarkInterpreterDispatch(b *testing.B) {
	bb := wasm.NewBuilder()
	f := bb.NewFunc("spin", wasm.FuncType{Params: []wasm.ValueType{wasm.I64}, Results: []wasm.ValueType{wasm.I64}})
	acc := f.AddLocal(wasm.I64)
	f.Loop(wasm.BlockEmpty)
	f.LocalGet(acc).I64Const(3).Op(wasm.OpI64Add).LocalSet(acc)
	f.LocalGet(0).I64Const(1).Op(wasm.OpI64Sub).LocalTee(0)
	f.I64Const(0).Op(wasm.OpI64GtS)
	f.BrIf(0)
	f.End()
	f.LocalGet(acc)
	f.End()
	bb.Export("spin", f.Idx)
	bytes := bb.Encode()
	for _, cfg := range []engine.Config{engines.WizardINT(), engines.WizardSPC()} {
		b.Run(cfg.Name, func(b *testing.B) {
			inst, err := engine.New(cfg, nil).Instantiate(bytes)
			if err != nil {
				b.Fatal(err)
			}
			fn, _ := inst.RT.FuncByName("spin")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := inst.CallFunc(fn, wasm.ValI64(100000)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInstantiate quantifies the compile-once / instantiate-many
// split on a polybench module: "full" pays decode+validate+compile per
// iteration (the old single-shot Instantiate(bytes) path), "cached"
// instantiates from a pre-compiled CompiledModule and pays only the
// link cost. The ratio is the serving amortization factor.
func BenchmarkInstantiate(b *testing.B) {
	item := workloads.PolyBench()[0] // gemm
	cfg := engines.WizardSPC()
	e := engine.New(cfg, nil)

	// The old path: every load decodes, validates, compiles, and
	// allocates a fresh value stack, with nothing reused.
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.Instantiate(item.Bytes); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		cm, err := e.Compile(item.Bytes)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inst, err := cm.Instantiate()
			if err != nil {
				b.Fatal(err)
			}
			inst.Release()
		}
	})
}

// BenchmarkInstantiatePooled compares the two ways to serve a fresh
// instance. "instantiate" links one from the CompiledModule and
// Releases it, recycling the value stack and the linear memory.
// "pooled" recycles the whole instance through CompiledModule.NewPool.
// Each pooled iteration is Get + gemm + Put, so every reset restores a
// genuinely mutated 1 MiB memory (the three matrices gemm writes), and
// ns/op is dominated by gemm itself. The pool's own latency totals give
// the per-request costs: get-ns/op and reset-ns/op.
func BenchmarkInstantiatePooled(b *testing.B) {
	item := workloads.PolyBench()[0] // gemm: 1 MiB memory, 3 matrices written
	e := engine.New(engines.WizardSPC(), nil)
	cm, err := e.Compile(item.Bytes)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("instantiate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inst, err := cm.Instantiate()
			if err != nil {
				b.Fatal(err)
			}
			inst.Release()
		}
	})

	b.Run("pooled", func(b *testing.B) {
		pool := cm.NewPool(1)
		defer pool.Close()
		serve := func() {
			inst, err := pool.Get()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := inst.Call("_start"); err != nil {
				b.Fatal(err)
			}
			pool.Put(inst)
		}
		serve() // the one miss, kept out of the per-request means
		st0 := pool.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve()
		}
		b.StopTimer()
		st := pool.Stats()
		perOp := func(total, total0 time.Duration, n, n0 uint64) float64 {
			return float64((total - total0).Nanoseconds()) / float64(max(n-n0, 1))
		}
		b.ReportMetric(perOp(st.GetTime, st0.GetTime, st.Gets, st0.Gets), "get-ns/op")
		b.ReportMetric(perOp(st.ResetTime, st0.ResetTime,
			st.ResetsOnPut+st.ResetsOnGet, st0.ResetsOnPut+st0.ResetsOnGet), "reset-ns/op")
	})
}

// manyFuncModule synthesizes a module with n independent functions of
// real compile weight (nested control flow, memory traffic, arithmetic
// chains), the shape that makes per-function compile fan-out pay —
// workload line items have only two functions each.
func manyFuncModule(n int) []byte {
	bb := wasm.NewBuilder()
	bb.AddMemory(1, 1)
	for fi := 0; fi < n; fi++ {
		f := bb.NewFunc(fmt.Sprintf("work%d", fi),
			wasm.FuncType{Params: []wasm.ValueType{wasm.I64}, Results: []wasm.ValueType{wasm.I64}})
		acc := f.AddLocal(wasm.I64)
		tmp := f.AddLocal(wasm.I64)
		for k := 0; k < 40; k++ {
			f.LocalGet(acc).LocalGet(0).I64Const(int64(fi*40 + k + 1)).Op(wasm.OpI64Mul)
			f.Op(wasm.OpI64Add).LocalSet(acc)
			f.LocalGet(acc).I64Const(int64(k + 3)).Op(wasm.OpI64Shl).LocalSet(tmp)
			f.LocalGet(acc).LocalGet(tmp).Op(wasm.OpI64Xor).LocalSet(acc)
			f.LocalGet(acc).I64Const(1).Op(wasm.OpI64And).Op(wasm.OpI64Eqz)
			f.If(wasm.BlockEmpty)
			f.LocalGet(acc).I64Const(int64(k)).Op(wasm.OpI64Add).LocalSet(acc)
			f.End()
			f.I32Const(int32(k%64)).LocalGet(acc).Store(wasm.OpI64Store, 0)
			f.I32Const(int32(k%64)).Load(wasm.OpI64Load, 0).LocalGet(acc)
			f.Op(wasm.OpI64Add).LocalSet(acc)
		}
		f.LocalGet(acc)
		f.End()
		bb.Export(fmt.Sprintf("work%d", fi), f.Idx)
	}
	return bb.Encode()
}

// BenchmarkCompileParallel measures per-function compile fan-out on a
// 64-function module: serial (1 worker) vs all cores. The speedup
// scales with core count; on a single-core host the pool degenerates to
// serial and the two variants measure the same work.
func BenchmarkCompileParallel(b *testing.B) {
	module := manyFuncModule(64)
	for _, workers := range []int{1, 0} { // 1 = serial, 0 = GOMAXPROCS
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			cfg := engines.WizardSPC()
			cfg.CompileWorkers = workers
			e := engine.New(cfg, nil)
			b.SetBytes(int64(len(module)))
			for i := 0; i < b.N; i++ {
				if _, err := e.Compile(module); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServiceThroughput runs the harness's serving measurement:
// compile once, instantiate+run many, reporting compile throughput and
// the amortization factor as custom metrics.
func BenchmarkServiceThroughput(b *testing.B) {
	item := workloads.Ostrich()[3] // crc
	for i := 0; i < b.N; i++ {
		s, err := harness.MeasureService(engines.WizardSPC(), item.Bytes, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(s.CompileThroughput(), "compile-MB/s")
			b.ReportMetric(s.Amortization(), "amortization-x")
		}
	}
}

// BenchmarkGCRootScan compares tag scanning and stackmap scanning of a
// deep frame stack — the dynamic-cost side of the paper's Section IV-C
// trade-off.
func BenchmarkGCRootScan(b *testing.B) {
	ctx := &rt.Context{Stack: rt.NewValueStack(1<<16, true)}
	info := &validate.FuncInfo{LocalTypes: []wasm.ValueType{wasm.ExternRef, wasm.I64}}
	fn := &rt.FuncInst{Info: info}
	for i := 0; i < 64; i++ {
		base := i * 64
		for s := 0; s < 64; s++ {
			ctx.Stack.Tags[base+s] = wasm.TagI64
		}
		ctx.Stack.Tags[base] = wasm.TagRef
		ctx.Stack.Slots[base] = uint64(i + 1)
		ctx.PushFrame(rt.FrameInfo{Kind: rt.FrameInterp, Func: fn, VFP: base, SP: base + 64})
	}
	h := heap.New(heap.ScanTags)
	for i := 0; i < 64; i++ {
		h.Alloc(uint64(i))
	}
	b.Run("tags", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.StackRoots(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
