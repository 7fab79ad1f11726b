package main

import (
	"fmt"
	"os"
	"time"

	"wizgo/internal/instancepool"
	"wizgo/internal/rt"
)

// spanLimit bounds the spans a traced run writes out; every recorded
// span still feeds its per-layer metrics.
const spanLimit = 200_000

// Per-layer metrics of the instance pool and of cold-start's loads. A
// workload that does not exercise a layer reports 0 for each of its
// metrics.
var (
	poolLayers = []string{"instancepool.get_us_p50", "instancepool.get_us_p99",
		"instancepool.put_us", "instancepool.reset_us",
		"instancepool.resets_on_get_ratio", "instancepool.hit_ratio"}
	coldLayers = []string{"compile_load_p50_us", "compile_load_p99_us",
		"rehydrate_load_p50_us", "rehydrate_load_p99_us",
		"codecache.disk_load_us", "codecache.rehydrate_us", "codecache.disk_hit_ratio"}
)

// callLayers are the pooled-serving request kinds' call metrics,
// indexed like serveKinds.
var callLayers = func() []string {
	out := make([]string, len(serveKinds))
	for i, k := range serveKinds {
		out[i] = "engine.call_us." + k
	}
	return out
}()

func notExercised(r *report, names ...string) {
	for _, n := range names {
		r.metrics[n] = 0
	}
}

// fail counts a failed op and reports the first few failures.
func (r *report) fail(err error) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
	}
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// counts accumulates a counting pass's executor counters and traps.
// The rewriting interpreter counts its dispatches as InterpOps, so the
// wasm3 tier's are kept apart.
type counts struct {
	all         rt.Stats
	rewriterOps uint64
	traps       int
}

func (c *counts) add(tier int, s rt.Stats) {
	c.all.InterpOps += s.InterpOps
	c.all.MachOps += s.MachOps
	c.all.OSRUps += s.OSRUps
	c.all.Deopts += s.Deopts
	if tier == tierWasm3 {
		c.rewriterOps += s.InterpOps
	}
}

func (c *counts) report(r *report) {
	r.metrics["interp.ops"] = float64(c.all.InterpOps - c.rewriterOps)
	r.metrics["rewriter.ops"] = float64(c.rewriterOps)
	r.metrics["mach.ops"] = float64(c.all.MachOps)
	r.metrics["engine.osr_ups"] = float64(c.all.OSRUps)
	r.metrics["engine.deopts"] = float64(c.all.Deopts)
	r.metrics["rt.traps"] = float64(c.traps)
}

// untracedOps reports two figures of a traced run's untraced ops that
// are per-layer, not end-to-end. Both are carried by the ops past p90.
// op_p99_us: under the memory-limit collector policy the ops past p90
// on cold-start were the ones a garbage collection stalled, and their
// p99 moved 1.2-2.3 ms between runs (IQR/median 0.31 over ten seeds).
// ops_per_s, all clients' successful ops per second: on cold-start the
// share of ops the machine stalled past 1 ms ranged from 0.1% to 4%
// between runs, which moved throughput by a third (IQR/median 0.34
// over seven seeds) while op_p50_us moved 2%.
func untracedOps(r *report, ops []op) {
	r.metrics["op_p99_us"] = quantile(latencies(ops), 0.99)
	var last time.Duration
	for _, o := range ops {
		last = max(last, o.end)
	}
	if last > 0 {
		r.metrics["ops_per_s"] = float64(len(ops)) / last.Seconds()
	}
}

// compiledMetrics reports the deterministic counts of one compile of
// each (module, tier): compiler invocations, checks the analysis elided
// and machine code bytes per tier compiler.
func compiledMetrics(r *report, calls uint64, elided int, code []int) {
	r.metrics["engine.compile_calls"] = float64(calls)
	r.metrics["analysis.checks_elided"] = float64(elided)
	for t, l := range compileLayer {
		if l != "" {
			r.metrics[l+".code_bytes"] = float64(code[t])
		}
	}
}

// compileSpans reports the median of each compile-pipeline phase the
// traced Compile calls went through.
func compileSpans(r *report, spans []span) {
	r.metrics["wasm.decode_us"] = median(durations(spans, nil, "decode", nil))
	r.metrics["validate.validate_us"] = median(durations(spans, nil, "validate", nil))
	r.metrics["analysis.analyze_us"] = median(durations(spans, nil, "analyze", nil))
	for t, l := range compileLayer {
		if l == "" {
			continue
		}
		r.metrics[l+".compile_us"] = median(durations(spans, nil, "compile",
			func(s span) bool { return int(s.tier) == t }))
	}
}

// tierExec reports, per tier, the geometric mean over that tier's pairs
// of each pair's median guest-call time.
func tierExec(r *report, ops []op, npairs int, tierOf func(int32) int) {
	calls := make([][]time.Duration, npairs)
	for _, o := range ops {
		calls[o.pair] = append(calls[o.pair], o.call)
	}
	for t, name := range execMetric {
		var groups [][]time.Duration
		for p, g := range calls {
			if tierOf(int32(p)) == t {
				groups = append(groups, g)
			}
		}
		r.metrics[name] = geomeanMedians(groups)
	}
}

// poolMetrics reports the pool layer from the traced Get and Put spans
// and the pools' own counters.
func poolMetrics(r *report, spans []span, stats []instancepool.Stats) {
	gets := durations(spans, nil, "Get", nil)
	r.metrics["instancepool.get_us_p50"] = quantile(gets, 0.5)
	r.metrics["instancepool.get_us_p99"] = quantile(gets, 0.99)
	r.metrics["instancepool.put_us"] = median(durations(spans, nil, "Put", nil))
	var t instancepool.Stats
	for _, s := range stats {
		t.Gets += s.Gets
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.MissTime += s.MissTime
		t.ResetsOnGet += s.ResetsOnGet
		t.ResetsOnPut += s.ResetsOnPut
		t.ResetTime += s.ResetTime
	}
	r.metrics["instancepool.reset_us"] = float64(t.MeanReset()) / 1e3
	r.metrics["instancepool.resets_on_get_ratio"] = ratio(t.ResetsOnGet, t.ResetsOnGet+t.ResetsOnPut)
	r.metrics["instancepool.hit_ratio"] = ratio(t.Hits, t.Gets)
	r.metrics["engine.link_us"] = float64(t.MeanMiss()) / 1e3
}
