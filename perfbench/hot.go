package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"wizgo/internal/engine"
	"wizgo/internal/instancepool"
	"wizgo/internal/rt"
	"wizgo/internal/wasm"
	"wizgo/internal/workloads"
)

// expectedJSON holds, per line item keyed "suite/name", its checksum
// after one _start and the operations the in-place interpreter
// dispatches for that _start. It was recorded once from the interpreter
// (go test -run TestExpected -update) and is committed; every tier,
// wizeng-int included, is checked against it on every op.
//
//go:embed expected.json
var expectedJSON []byte

type expected struct {
	Checksum int64  `json:"checksum"`
	Ops      uint64 `json:"interp_ops"`
}

func expectedItems() (map[string]expected, error) {
	var m map[string]expected
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// hotItems returns the hot-kernels line items: within each suite, every
// third item by interpreter cost, heaviest first. The set is fixed, not
// drawn from the seed: a seeded one-per-stratum draw moved the median
// op latency and the code size by 5-9% from seed to seed, more than the
// metrics' bounds allow between two runs of the same code.
func hotItems(want map[string]expected) ([]workloads.Item, error) {
	var out []workloads.Item
	for _, suite := range []string{workloads.SuitePolyBench, workloads.SuiteLibsodium, workloads.SuiteOstrich} {
		var items []workloads.Item
		for _, it := range workloads.All() {
			if it.Suite != suite {
				continue
			}
			if _, ok := want[itemKey(it)]; !ok {
				return nil, fmt.Errorf("expected.json has no entry for %s", itemKey(it))
			}
			items = append(items, it)
		}
		sort.SliceStable(items, func(i, j int) bool {
			return want[itemKey(items[i])].Ops > want[itemKey(items[j])].Ops
		})
		for i := 0; i < len(items); i += 3 {
			out = append(out, items[i])
		}
	}
	return out, nil
}

func itemKey(it workloads.Item) string { return it.Suite + "/" + it.Name }

// hotBlocks is the number of blocks a hot-kernels run's op metrics are
// computed over: in a 30 s run about 2,000 ops each.
const hotBlocks = 3

// hotPair is one (line item, tier) of the hot-kernels workload, compiled
// during set-up into a pool of one.
type hotPair struct {
	tier int
	name string
	want int64
	pool *engine.InstancePool
	code int // machine code bytes
	// elided is the analysis' elided bounds checks and polls.
	elided int
}

type hotState struct {
	pairs []hotPair
	engs  []*engine.Engine
}

// newHotState compiles every pair, recording each Compile in tr.
func newHotState(tr *tracer, cfgs []engine.Config, items []workloads.Item, want map[string]expected) (*hotState, error) {
	s := &hotState{}
	for _, cfg := range cfgs {
		s.engs = append(s.engs, engine.New(cfg, nil))
	}
	for _, it := range items {
		ck := want[itemKey(it)].Checksum
		for t, e := range s.engs {
			sp := tr.begin("Compile", 0, -1, t, 0)
			cm, err := e.Compile(it.Bytes)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", itemKey(it), tierNames[t], err)
			}
			tr.compileChildren(sp, cm.Timings)
			p := hotPair{tier: t, name: itemKey(it), want: ck, pool: cm.NewPool(1),
				code: cm.Timings.CodeBytes, elided: cm.Analysis.BoundsProven + cm.Analysis.PollsElided}
			// Instantiate the pool's one instance now, so no op pays a miss.
			inst, err := p.pool.Get()
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", itemKey(it), tierNames[t], err)
			}
			p.pool.Put(inst)
			s.pairs = append(s.pairs, p)
		}
	}
	return s, nil
}

func (s *hotState) close() {
	for _, p := range s.pairs {
		p.pool.Close()
	}
}

// deck returns pass's op order: every pair once, shuffled.
func (s *hotState) deck(seed uint64, pass int) []int32 {
	deck := make([]int32, len(s.pairs))
	for i := range deck {
		deck[i] = int32(i)
	}
	rng := rand.New(rand.NewPCG(seed, uint64(pass)))
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// run is one hot-kernels op: Get → _start → checksum → Put, with the
// checksum checked against the expected file.
func (s *hotState) run(tr *tracer, id int64, pair int, count *counts) (o op, err error) {
	p := &s.pairs[pair]
	o.pair = int32(pair)
	root := tr.begin("op", id, -1, p.tier, 0)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("Get", id, root, p.tier, 0)
	inst, err := p.pool.Get()
	tr.end(sp)
	if err != nil {
		return o, err
	}
	inst.Ctx.CountStats = count != nil
	sp = tr.begin("Call", id, root, p.tier, 0)
	c0 := time.Now()
	_, err = inst.Call("_start")
	o.call = time.Since(c0)
	tr.end(sp)
	var got []wasm.Value
	if err == nil {
		sp = tr.begin("Call", id, root, p.tier, 1)
		got, err = inst.Call("checksum")
		tr.end(sp)
	}
	if count != nil {
		count.add(p.tier, inst.Ctx.Stats)
		inst.Ctx.CountStats = false
		inst.Ctx.Stats = rt.Stats{}
	}
	sp = tr.begin("Put", id, root, p.tier, 0)
	p.pool.Put(inst)
	tr.end(sp)
	o.lat = time.Since(t0)
	if err != nil {
		return o, fmt.Errorf("%s on %s: %w", p.name, tierNames[p.tier], err)
	}
	if v := got[0].I64(); v != p.want {
		return o, fmt.Errorf("%s on %s: checksum %d, want %d", p.name, tierNames[p.tier], v, p.want)
	}
	return o, nil
}

// loop runs hot-kernels ops for d, starting at pass, hands each
// successful op to sink and returns the next pass.
func (s *hotState) loop(c *config, r *report, tr *tracer, d time.Duration, pass int, sink func(op)) int {
	t0 := time.Now()
	for time.Since(t0) < d {
		for _, x := range s.deck(c.seed, pass) {
			o, err := s.run(tr, int64(r.attempted), int(x), nil)
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

func hotKernels(c *config) (*report, error) {
	cfgs, err := tierConfigs()
	if err != nil {
		return nil, err
	}
	want, err := expectedItems()
	if err != nil {
		return nil, err
	}
	items, err := hotItems(want)
	if err != nil {
		return nil, err
	}
	r := newReport()
	var tr *tracer
	if c.trace {
		tr = newTracer(time.Now())
	}
	var s *hotState
	err = timeSetups(c, r, func() error {
		s, err = newHotState(tr, cfgs, items, want)
		return err
	}, func() { s.close() })
	if err != nil {
		return nil, err
	}
	code := make([]int, len(cfgs))
	var elided int
	for _, p := range s.pairs {
		code[p.tier] += p.code
		elided += p.elided
	}
	r.metrics["code_bytes"] = float64(sum(code))
	tierOf := func(p int32) int { return s.pairs[p].tier }
	if !c.trace {
		rec := newRecorder(len(s.pairs), hotBlocks, c.dur)
		s.loop(c, r, nil, c.dur, 0, rec.add)
		opStats(r, []*recorder{rec})
		r.metrics["live_heap_mb"] = liveHeapMB(s)
		return r, nil
	}

	// Counting pass: every pair once, in seed order, on instances that
	// have not run yet. Its counts repeat exactly.
	var count counts
	var first []time.Duration
	for _, x := range s.deck(c.seed, -1) {
		o, err := s.run(nil, 0, int(x), &count)
		r.attempted++
		if err != nil {
			r.fail(err)
		}
		first = append(first, o.call)
	}
	count.report(r)
	var calls uint64
	for _, e := range s.engs {
		calls += e.CompileCalls()
	}
	compiledMetrics(r, calls, elided, code)

	r.metrics["engine.first_call_us"] = median(first)
	compileSpans(r, tr.spans)

	var untraced, traced []op
	pass := s.loop(c, r, nil, c.dur/2, 0, appender(&untraced))
	s.loop(c, r, tr, c.dur/2, pass, appender(&traced))
	overhead(r, untraced, traced)
	untracedOps(r, untraced)
	tierExec(r, traced, len(s.pairs), tierOf)
	stats := make([]instancepool.Stats, len(s.pairs))
	for i, p := range s.pairs {
		stats[i] = p.pool.Stats()
	}
	poolMetrics(r, tr.spans, stats)
	notExercised(r, coldLayers...)
	notExercised(r, callLayers...)
	return r, writeSpans(traceFile(c), tr.spans, spanLimit)
}
