package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"wizgo/internal/codecache"
	"wizgo/internal/engine"
	"wizgo/internal/workloads"
)

// coldBlocks is the number of blocks a cold-start run's op metrics are
// computed over: about 8,000 ops each in a 30 s run.
const coldBlocks = 9

// coldGCEvery is how many cold-start ops run between two garbage
// collections, which the loops start themselves, between ops. Every op
// links a 1 MiB linear memory. Under the other workloads' memory-limit
// policy (collect every 32 MiB) cold-start collected about 260 times a
// second, a tenth of the CPU went to the collector, and the runtime
// returned freed pages to the OS to stay under the limit, so an op took
// about 18 page faults; p50 moved 17% and p90 23% between runs. Collected
// every 64 ops, outside any op, no collection overlaps an op (though
// each still counts in ops_per_s), the ~100 MiB the ops reuse stays
// mapped, and p50 moved 7% and p90 11% between the same runs.
const coldGCEvery = 64

// Cold-start op kinds.
const (
	kindCompile = iota
	kindRehydrate
)

// coldPair is one (line item, tier) of the cold-start workload. Its
// module is the item's early-return variant (the paper's m0), so
// compile and link do nearly all of an op's work.
type coldPair struct {
	tier  int
	bytes []byte
	key   codecache.Key // its entry in the rehydrating engine's cache
}

// coldState is one cold-start set-up: per tier, an engine with no cache
// (compile ops) and an engine with a memory and a disk cache whose disk
// holds every pair's artifact (rehydrate ops). The first set-up of a
// run compiles every pair and fills the disk cache; later ones start
// like a restarted server and load every pair from it.
type coldState struct {
	pairs []coldPair
	comp  []*engine.Engine
	rehy  []*engine.Engine
	cache *codecache.Cache
	// codeBytes is the machine code one compile of every pair emits,
	// per tier.
	codeBytes []int
}

func newColdState(dir string, cfgs []engine.Config, items []workloads.Item) (*coldState, error) {
	disk, err := engine.OpenDiskCache(dir)
	if err != nil {
		return nil, err
	}
	n := len(items) * len(cfgs)
	s := &coldState{
		cache:     codecache.New(codecache.Options{Capacity: 2 * n}),
		codeBytes: make([]int, len(cfgs)),
	}
	for _, cfg := range cfgs {
		s.comp = append(s.comp, engine.New(cfg, nil))
		cfg.Cache, cfg.DiskCache = s.cache, disk
		s.rehy = append(s.rehy, engine.New(cfg, nil))
	}
	for _, it := range items {
		for t, e := range s.rehy {
			cm, err := e.Compile(it.BytesM0)
			if err != nil {
				return nil, fmt.Errorf("%s/%s on %s: %w", it.Suite, it.Name, tierNames[t], err)
			}
			s.codeBytes[t] += cm.Timings.CodeBytes
			s.pairs = append(s.pairs, coldPair{tier: t, bytes: it.BytesM0,
				key: codecache.KeyFor(it.BytesM0, e.Config().Fingerprint())})
		}
	}
	if st := disk.Stats(); st.Writes+st.Hits != uint64(n) {
		return nil, fmt.Errorf("disk cache served or stored %d of %d artifacts", st.Writes+st.Hits, n)
	}
	return s, nil
}

// coldDeck returns pass's op order: every pair once per kind, shuffled.
// An op is pair*2 + kind.
func coldDeck(seed uint64, pass, npairs int) []int32 {
	deck := make([]int32, 2*npairs)
	for i := range deck {
		deck[i] = int32(i)
	}
	rng := rand.New(rand.NewPCG(seed, uint64(pass)))
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// load runs one cold-start op: load the pair's module (compiling it, or
// invalidating its memory-cache entry and rehydrating it from disk),
// link it, call _start once and release the instance. With count set it
// adds the call's executor counters there.
func (s *coldState) load(tr *tracer, id int64, pair, kind int, count *counts) (o op, cm *engine.CompiledModule, err error) {
	p := s.pairs[pair]
	o.pair = int32(2*pair + kind)
	root := tr.begin("op", id, -1, p.tier, kind)
	defer tr.end(root)
	t0 := time.Now()
	e := s.comp[p.tier]
	var calls0 uint64
	if kind == kindRehydrate {
		e = s.rehy[p.tier]
		calls0 = e.CompileCalls()
		sp := tr.begin("Invalidate", id, root, p.tier, kind)
		s.cache.Invalidate(p.key)
		tr.end(sp)
	}
	sp := tr.begin("Compile", id, root, p.tier, kind)
	cm, err = e.Compile(p.bytes)
	tr.end(sp)
	if err != nil {
		return o, nil, err
	}
	tr.compileChildren(sp, cm.Timings)
	if kind == kindRehydrate {
		if e.CompileCalls() != calls0 {
			return o, nil, fmt.Errorf("%s: rehydrate op invoked the compiler", tierNames[p.tier])
		}
		if cm.Timings.Rehydrate == 0 {
			return o, nil, fmt.Errorf("%s: rehydrate op did not load from disk", tierNames[p.tier])
		}
	}
	sp = tr.begin("Instantiate", id, root, p.tier, kind)
	inst, err := cm.Instantiate()
	tr.end(sp)
	if err != nil {
		return o, nil, err
	}
	inst.Ctx.CountStats = count != nil
	sp = tr.begin("Call", id, root, p.tier, kind)
	c0 := time.Now()
	_, err = inst.Call("_start")
	o.call = time.Since(c0)
	tr.end(sp)
	if count != nil {
		count.add(p.tier, inst.Ctx.Stats)
	}
	sp = tr.begin("Release", id, root, p.tier, kind)
	inst.Release()
	tr.end(sp)
	o.lat = time.Since(t0)
	return o, cm, err
}

// collectEvery collects garbage before every n-th op; done is the
// number of ops run so far.
func collectEvery(done, n int) {
	if done%n == 0 {
		runtime.GC()
	}
}

// loop runs cold-start ops for d, starting at pass, hands each
// successful op to sink and returns the next pass.
func (s *coldState) loop(c *config, r *report, tr *tracer, d time.Duration, pass int, sink func(op)) int {
	t0 := time.Now()
	for time.Since(t0) < d {
		for _, x := range coldDeck(c.seed, pass, len(s.pairs)) {
			collectEvery(r.attempted, coldGCEvery)
			o, _, err := s.load(tr, int64(r.attempted), int(x/2), int(x%2), nil)
			r.attempted++
			if err != nil {
				r.fail(err)
				continue
			}
			o.end = time.Since(t0)
			sink(o)
		}
		pass++
	}
	return pass
}

func coldStart(c *config) (*report, error) {
	cfgs, err := tierConfigs()
	if err != nil {
		return nil, err
	}
	items := workloads.All()
	r := newReport()
	var s *coldState
	dir := filepath.Join(c.dir, "disk")
	err = timeSetups(c, r, func() error {
		s, err = newColdState(dir, cfgs, items)
		return err
	}, func() { s = nil })
	if err != nil {
		return nil, err
	}
	// Only the loops' own collections run from here on.
	debug.SetMemoryLimit(math.MaxInt64)
	r.metrics["code_bytes"] = float64(sum(s.codeBytes))
	if !c.trace {
		rec := newRecorder(2*len(s.pairs), coldBlocks, c.dur)
		s.loop(c, r, nil, c.dur, 0, rec.add)
		opStats(r, []*recorder{rec})
		r.metrics["live_heap_mb"] = liveHeapMB(s)
		return r, nil
	}

	// Counting pass: every pair compiled and rehydrated once, in seed
	// order, with executor counters on. Its counts repeat exactly.
	var count counts
	var calls0 uint64
	for _, e := range s.comp {
		calls0 += e.CompileCalls()
	}
	disk0 := s.cache.Stats().DiskHits
	var elided int
	code := make([]int, len(cfgs))
	for _, x := range coldDeck(c.seed, -1, len(s.pairs)) {
		pair, kind := int(x/2), int(x%2)
		collectEvery(r.attempted, coldGCEvery)
		_, cm, err := s.load(nil, 0, pair, kind, &count)
		r.attempted++
		if err != nil {
			r.fail(err)
			continue
		}
		if kind == kindCompile {
			elided += cm.Analysis.BoundsProven + cm.Analysis.PollsElided
			code[s.pairs[pair].tier] += cm.Timings.CodeBytes
		}
	}
	var calls uint64
	for _, e := range s.comp {
		calls += e.CompileCalls()
	}
	compiledMetrics(r, calls-calls0, elided, code)
	r.metrics["codecache.disk_hit_ratio"] = ratio(s.cache.Stats().DiskHits-disk0, uint64(len(s.pairs)))
	count.report(r)

	var untraced, traced []op
	pass := s.loop(c, r, nil, c.dur/2, 0, appender(&untraced))
	tr := newTracer(time.Now())
	s.loop(c, r, tr, c.dur/2, pass, appender(&traced))
	overhead(r, untraced, traced)
	untracedOps(r, untraced)

	// The compile/rehydrate split of op latency, from the untraced half.
	for kind, name := range []string{"compile_load", "rehydrate_load"} {
		var ds []time.Duration
		for _, o := range untraced {
			if int(o.pair%2) == kind {
				ds = append(ds, o.lat)
			}
		}
		r.metrics[name+"_p50_us"] = quantile(ds, 0.5)
		r.metrics[name+"_p99_us"] = quantile(ds, 0.99)
	}
	self := selfTimes(tr.spans)
	compileSpans(r, tr.spans)
	r.metrics["codecache.disk_load_us"] = median(durations(tr.spans, self, "Compile",
		func(s span) bool { return int(s.kind) == kindRehydrate }))
	r.metrics["codecache.rehydrate_us"] = median(durations(tr.spans, nil, "rehydrate", nil))
	r.metrics["engine.link_us"] = median(durations(tr.spans, nil, "Instantiate", nil))
	r.metrics["engine.first_call_us"] = median(durations(tr.spans, nil, "Call", nil))
	tierExec(r, traced, 2*len(s.pairs), func(p int32) int { return s.pairs[p/2].tier })
	notExercised(r, poolLayers...)
	notExercised(r, callLayers...)
	return r, writeSpans(traceFile(c), tr.spans, spanLimit)
}
