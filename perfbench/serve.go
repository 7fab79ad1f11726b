package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"wizgo/internal/engine"
	"wizgo/internal/instancepool"
	"wizgo/internal/rt"
	"wizgo/internal/wasm"
)

// serveKinds are the pooled-serving request kinds, one export each.
// Each uses the pool's reset path differently: call and read are proven
// read-only (no memory reset), write dirties a few 4 KiB granules, host
// calls the host (which marks all memory dirty), and trap ends in
// i32.div_s by zero with the instance recycled.
var serveKinds = []string{"call", "read", "write", "host", "trap"}

const (
	kindCall = iota
	kindRead
	kindWrite
	kindHost
	kindTrap
)

const (
	serveClients = 2
	// serveBlocks is the number of blocks each client's op metrics are
	// computed over: about 80,000 requests each in a 30 s run.
	serveBlocks = 9
	// servePoolSize keeps an idle instance per client plus one being
	// reset in the background.
	servePoolSize = serveClients + 2
	dataBytes     = 64 << 10
	granule       = 4 << 10
)

var (
	i32 = wasm.I32
	i64 = wasm.I64
)

// serviceModule builds the service: 1 MiB of memory whose first
// dataBytes are seeded by a data segment, one host import (env.mix) and
// one export per request kind.
func serviceModule(data []byte) []byte {
	b := wasm.NewBuilder()
	mix := b.ImportFunc("env", "mix", wasm.FuncType{Params: []wasm.ValueType{i64}, Results: []wasm.ValueType{i64}})
	b.AddMemory(16, 16)
	b.AddData(0, data)

	// fib(n i32) i64: recursive, so a request is all guest→guest calls.
	fib := b.NewFunc("fib", wasm.FuncType{Params: []wasm.ValueType{i32}, Results: []wasm.ValueType{i64}})
	fib.LocalGet(0).I32Const(2).Op(wasm.OpI32LtS)
	fib.If(wasm.BlockVal(i64))
	fib.LocalGet(0).Op(wasm.OpI64ExtendI32S)
	fib.Else()
	fib.LocalGet(0).I32Const(1).Op(wasm.OpI32Sub).Call(fib.Idx)
	fib.LocalGet(0).I32Const(2).Op(wasm.OpI32Sub).Call(fib.Idx)
	fib.Op(wasm.OpI64Add)
	fib.End()
	b.Export("call", fib.Idx)

	// read(word i32, n i32) i64: sum of n i64 words from word on.
	rd := b.NewFunc("read", wasm.FuncType{Params: []wasm.ValueType{i32, i32}, Results: []wasm.ValueType{i64}})
	acc := rd.AddLocal(i64)
	rd.Loop(wasm.BlockEmpty)
	rd.LocalGet(0).I32Const(3).Op(wasm.OpI32Shl).Load(wasm.OpI64Load, 0)
	rd.LocalGet(acc).Op(wasm.OpI64Add).LocalSet(acc)
	rd.LocalGet(0).I32Const(1).Op(wasm.OpI32Add).LocalSet(0)
	rd.LocalGet(1).I32Const(1).Op(wasm.OpI32Sub).LocalTee(1)
	rd.BrIf(0)
	rd.End()
	rd.LocalGet(acc)
	b.Export("read", rd.Idx)

	// write(k i32, v i64) i64: for each of the first k granules, add its
	// first word to the result and overwrite it with v. The result is
	// right only if the previous request's writes were reset.
	wr := b.NewFunc("write", wasm.FuncType{Params: []wasm.ValueType{i32, i64}, Results: []wasm.ValueType{i64}})
	acc = wr.AddLocal(i64)
	addr := wr.AddLocal(i32)
	wr.Loop(wasm.BlockEmpty)
	wr.LocalGet(addr).Load(wasm.OpI64Load, 0)
	wr.LocalGet(acc).Op(wasm.OpI64Add).LocalSet(acc)
	wr.LocalGet(addr).LocalGet(1).Store(wasm.OpI64Store, 0)
	wr.LocalGet(addr).I32Const(granule).Op(wasm.OpI32Add).LocalSet(addr)
	wr.LocalGet(0).I32Const(1).Op(wasm.OpI32Sub).LocalTee(0)
	wr.BrIf(0)
	wr.End()
	wr.LocalGet(acc)
	b.Export("write", wr.Idx)

	// host(n i32) i64: sum of env.mix(i) for i < n.
	h := b.NewFunc("host", wasm.FuncType{Params: []wasm.ValueType{i32}, Results: []wasm.ValueType{i64}})
	acc = h.AddLocal(i64)
	i := h.AddLocal(i32)
	h.Loop(wasm.BlockEmpty)
	h.LocalGet(i).Op(wasm.OpI64ExtendI32S).Call(mix)
	h.LocalGet(acc).Op(wasm.OpI64Add).LocalSet(acc)
	h.LocalGet(i).I32Const(1).Op(wasm.OpI32Add).LocalTee(i)
	h.LocalGet(0).Op(wasm.OpI32LtS)
	h.BrIf(0)
	h.End()
	h.LocalGet(acc)
	b.Export("host", h.Idx)

	// trap(x i32, y i32) i32: x / y, called with y = 0.
	t := b.NewFunc("trap", wasm.FuncType{Params: []wasm.ValueType{i32, i32}, Results: []wasm.ValueType{i32}})
	t.LocalGet(0).LocalGet(1).Op(wasm.OpI32DivS)
	b.Export("trap", t.Idx)
	return b.Encode()
}

// hostMix is env.mix, the service's host import.
func hostMix(x int64) int64 { return x*x + 7 }

func fibN(n int) int64 {
	a, b := int64(0), int64(1)
	for range n {
		a, b = b, a+b
	}
	return a
}

func word(data []byte, i int) int64 { return int64(binary.LittleEndian.Uint64(data[8*i:])) }

// request is one pooled-serving request with its expected answer.
type request struct {
	tier, kind int
	args       []wasm.Value
	want       int64 // unused for trap requests
}

// serveStream generates one client's requests: passes over every
// (tier, kind) pair in seeded order, with seeded arguments drawn from
// fixed ranges.
type serveStream struct {
	rng  *rand.Rand
	data []byte
	deck []int
}

func newServeStream(seed, stream uint64, data []byte) *serveStream {
	return &serveStream{rng: rand.New(rand.NewPCG(seed, stream)), data: data}
}

func (s *serveStream) next() request {
	if len(s.deck) == 0 {
		s.deck = s.rng.Perm(len(tierNames) * len(serveKinds))
	}
	x := s.deck[0]
	s.deck = s.deck[1:]
	q := request{tier: x / len(serveKinds), kind: x % len(serveKinds)}
	switch q.kind {
	case kindCall:
		n := 10 + s.rng.IntN(4)
		q.args = []wasm.Value{wasm.ValI32(int32(n))}
		q.want = fibN(n)
	case kindRead:
		w, n := s.rng.IntN(1024), 128+s.rng.IntN(385)
		q.args = []wasm.Value{wasm.ValI32(int32(w)), wasm.ValI32(int32(n))}
		for i := range n {
			q.want += word(s.data, w+i)
		}
	case kindWrite:
		k := 1 + s.rng.IntN(dataBytes/granule)
		q.args = []wasm.Value{wasm.ValI32(int32(k)), wasm.ValI64(s.rng.Int64())}
		for g := range k {
			q.want += word(s.data, g*granule/8)
		}
	case kindHost:
		n := 16 + s.rng.IntN(49)
		q.args = []wasm.Value{wasm.ValI32(int32(n))}
		for i := range n {
			q.want += hostMix(int64(i))
		}
	case kindTrap:
		q.args = []wasm.Value{wasm.ValI32(s.rng.Int32()), wasm.ValI32(0)}
	}
	return q
}

type serveState struct {
	engs  []*engine.Engine
	cms   []*engine.CompiledModule
	pools []*engine.InstancePool
}

func newServeState(tr *tracer, cfgs []engine.Config, module []byte) (*serveState, error) {
	l := engine.NewLinker()
	ft := wasm.FuncType{Params: []wasm.ValueType{i64}, Results: []wasm.ValueType{i64}}
	err := l.DefineFunc("env", "mix", ft, func(_ *rt.Context, args, results []uint64) error {
		results[0] = uint64(hostMix(int64(args[0])))
		return nil
	})
	if err != nil {
		return nil, err
	}
	s := &serveState{}
	for t, cfg := range cfgs {
		e := engine.New(cfg, l)
		sp := tr.begin("Compile", 0, -1, t, 0)
		cm, err := e.Compile(module)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tierNames[t], err)
		}
		tr.compileChildren(sp, cm.Timings)
		pool := cm.NewPool(servePoolSize)
		// One instance per client, created now so no request pays a miss.
		var insts []*engine.Instance
		for range serveClients {
			inst, err := pool.Get()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", tierNames[t], err)
			}
			insts = append(insts, inst)
		}
		for _, inst := range insts {
			pool.Put(inst)
		}
		s.engs = append(s.engs, e)
		s.cms = append(s.cms, cm)
		s.pools = append(s.pools, pool)
	}
	return s, nil
}

func (s *serveState) close() {
	for _, p := range s.pools {
		p.Close()
	}
}

// serve runs one request on pools: Get → call → Put, checking the
// answer. With count set it adds the call's executor counters there.
func serve(pools []*engine.InstancePool, tr *tracer, id int64, q request, count *counts) (o op, err error) {
	o.pair = int32(q.tier*len(serveKinds) + q.kind)
	root := tr.begin("op", id, -1, q.tier, q.kind)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("Get", id, root, q.tier, q.kind)
	inst, err := pools[q.tier].Get()
	tr.end(sp)
	if err != nil {
		return o, err
	}
	inst.Ctx.CountStats = count != nil
	sp = tr.begin("Call", id, root, q.tier, q.kind)
	c0 := time.Now()
	res, err := inst.Call(serveKinds[q.kind], q.args...)
	o.call = time.Since(c0)
	tr.end(sp)
	if count != nil {
		count.add(q.tier, inst.Ctx.Stats)
		inst.Ctx.CountStats = false
		inst.Ctx.Stats = rt.Stats{}
	}
	sp = tr.begin("Put", id, root, q.tier, q.kind)
	pools[q.tier].Put(inst)
	tr.end(sp)
	o.lat = time.Since(t0)

	where := func() string { return serveKinds[q.kind] + " on " + tierNames[q.tier] }
	var trap *rt.Trap
	if errors.As(err, &trap) && count != nil {
		count.traps++
	}
	switch {
	case q.kind == kindTrap:
		if trap == nil || trap.Kind != rt.TrapDivByZero {
			return o, fmt.Errorf("%s: got %v, want a divide-by-zero trap", where(), err)
		}
	case err != nil:
		return o, fmt.Errorf("%s: %w", where(), err)
	case res[0].I64() != q.want:
		return o, fmt.Errorf("%s: got %d, want %d", where(), res[0].I64(), q.want)
	}
	return o, nil
}

// loop runs serveClients closed-loop clients for d. Client k draws its
// requests from stream base+k and hands each finished op to sinks[k].
// With traced set it returns the clients' spans.
func (s *serveState) loop(c *config, r *report, traced bool, d time.Duration, base uint64, data []byte, sinks []func(op)) []span {
	type client struct {
		tr        *tracer
		attempted int
		errs      []error
	}
	clients := make([]client, serveClients)
	epoch := time.Now()
	var wg sync.WaitGroup
	for k := range clients {
		cl := &clients[k]
		if traced {
			cl.tr = newTracer(epoch)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newServeStream(c.seed, base+uint64(k), data)
			for time.Since(epoch) < d {
				o, err := serve(s.pools, cl.tr, int64(k)<<40|int64(cl.attempted), st.next(), nil)
				cl.attempted++
				if err != nil {
					cl.errs = append(cl.errs, err)
					continue
				}
				o.end = time.Since(epoch)
				sinks[k](o)
			}
		}()
	}
	wg.Wait()
	var spans []span
	for _, cl := range clients {
		r.attempted += cl.attempted
		for _, err := range cl.errs {
			r.fail(err)
		}
		if cl.tr != nil {
			spans = mergeSpans(spans, cl.tr.spans)
		}
	}
	return spans
}

// countRequests is the counting pass's length: four passes over every
// (tier, kind) pair.
const countRequests = 4 * 25

func pooledServing(c *config) (*report, error) {
	cfgs, err := tierConfigs()
	if err != nil {
		return nil, err
	}
	data := make([]byte, dataBytes)
	rng := rand.New(rand.NewPCG(c.seed, 0))
	for i := 0; i < len(data); i += 8 {
		binary.LittleEndian.PutUint64(data[i:], rng.Uint64())
	}
	module := serviceModule(data)
	r := newReport()
	var tr *tracer
	if c.trace {
		tr = newTracer(time.Now())
	}
	var s *serveState
	err = timeSetups(c, r, func() error {
		s, err = newServeState(tr, cfgs, module)
		return err
	}, func() { s.close() })
	if err != nil {
		return nil, err
	}
	code := make([]int, len(cfgs))
	var elided int
	for t, cm := range s.cms {
		code[t] = cm.Timings.CodeBytes
		elided += cm.Analysis.BoundsProven + cm.Analysis.PollsElided
	}
	r.metrics["code_bytes"] = float64(sum(code))
	npairs := len(tierNames) * len(serveKinds)
	if !c.trace {
		var recs []*recorder
		var sinks []func(op)
		for range serveClients {
			rec := newRecorder(npairs, serveBlocks, c.dur)
			recs, sinks = append(recs, rec), append(sinks, rec.add)
		}
		s.loop(c, r, false, c.dur, 1, data, sinks)
		opStats(r, recs)
		r.metrics["live_heap_mb"] = liveHeapMB(s)
		return r, nil
	}

	// Counting pass: a fixed request sequence, served one at a time from
	// fresh pools of one, so its counts repeat exactly.
	var count counts
	var first []time.Duration
	pools := make([]*engine.InstancePool, len(s.cms))
	for t, cm := range s.cms {
		pools[t] = cm.NewPool(1)
	}
	st := newServeStream(c.seed, 0, data)
	seen := make([]bool, len(pools))
	for range countRequests {
		q := st.next()
		o, err := serve(pools, nil, 0, q, &count)
		r.attempted++
		if err != nil {
			r.fail(err)
		}
		if !seen[q.tier] {
			seen[q.tier] = true
			first = append(first, o.call)
		}
	}
	for _, p := range pools {
		p.Close()
	}
	count.report(r)
	r.metrics["engine.first_call_us"] = median(first)
	var calls uint64
	for _, e := range s.engs {
		calls += e.CompileCalls()
	}
	compiledMetrics(r, calls, elided, code)
	compileSpans(r, tr.spans)

	var untraced, traced [serveClients][]op
	var sinks []func(op)
	for k := range serveClients {
		sinks = append(sinks, appender(&untraced[k]))
	}
	s.loop(c, r, false, c.dur/2, 1, data, sinks)
	for k := range serveClients {
		sinks[k] = appender(&traced[k])
	}
	spans := s.loop(c, r, true, c.dur/2, 1+serveClients, data, sinks)
	overhead(r, slices.Concat(untraced[:]...), slices.Concat(traced[:]...))
	untracedOps(r, slices.Concat(untraced[:]...))
	tierExec(r, slices.Concat(traced[:]...), npairs, func(p int32) int { return int(p) / len(serveKinds) })
	stats := make([]instancepool.Stats, len(s.pools))
	for t, p := range s.pools {
		stats[t] = p.Stats()
	}
	poolMetrics(r, spans, stats)
	for k, name := range callLayers {
		r.metrics[name] = median(durations(spans, nil, "Call", func(s span) bool { return int(s.kind) == k }))
	}
	notExercised(r, coldLayers...)
	return r, writeSpans(traceFile(c), mergeSpans(tr.spans, spans), spanLimit)
}
