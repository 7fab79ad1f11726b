// Command perfbench is wizgo's benchmark: three seeded, closed-loop
// workloads that meet a request in the three states it can find wizgo
// in — cold (compile or disk rehydrate, then link), hot (executing
// kernels) and pooled (get + reset + call) — driving wizgo only through
// its public engine, pool and code-cache calls.
//
//	perfbench -workload cold-start -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are
// BENCHMARK.json's end_to_end list; with -trace 1 they are its per_layer
// list, measured from spans the benchmark records around each public
// call. See README.md for what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"wizgo/internal/engine"
	"wizgo/internal/engines"
)

// tierNames are the five presets every workload runs, one per executor
// family: in-place interpreter, single-pass compiler to the mach
// executor, rewriting interpreter, copy-and-patch to the mach executor,
// and the interpreter with OSR into mach.
var tierNames = []string{"wizeng-int", "wizeng-spc", "wasm3", "wasm-now", "wizeng-tiered"}

// Per-layer metric names indexed like tierNames.
var (
	execMetric = []string{"interp.exec_geomean_ms", "mach.exec_geomean_ms",
		"rewriter.exec_geomean_ms", "copypatch.exec_geomean_ms", "engine.tiered_exec_geomean_ms"}
	// compileLayer names the tier compiler of the eager JIT presets.
	compileLayer = []string{"", "spc", "rewriter", "copypatch", ""}
)

// tierWasm3 is wasm3's index in tierNames.
const tierWasm3 = 2

// stackSlots sizes every instance's value stack. The presets' default
// (1 Mi slots: 8 MiB plus 1 MiB of tags) would put hot-kernels' 135
// resident instances over a gigabyte once the Go heap reuses, and so
// zeroes, their memory; 64 Ki slots run every line item.
const stackSlots = 1 << 16

func tierConfigs() ([]engine.Config, error) {
	cfgs := make([]engine.Config, len(tierNames))
	for i, n := range tierNames {
		c, ok := engines.ByName(n)
		if !ok {
			return nil, fmt.Errorf("no engine preset %q", n)
		}
		c.StackSlots = stackSlots
		cfgs[i] = c
	}
	return cfgs, nil
}

// config is one run's parameters.
type config struct {
	seed    uint64
	dur     time.Duration
	trace   bool
	dir     string // scratch directory owned by this run
	setups  int    // timed set-ups per run; setup_s is their median
	warmups int    // untimed set-ups before them
}

// report is one run's outcome: op counts and every metric measured,
// keyed by metric name.
type report struct {
	attempted, failed int
	metrics           map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// op records one measured op: which (tier, item or kind) pair it served,
// its end-to-end latency, the duration of its main guest call, and when
// it ended, from the start of its loop.
type op struct {
	pair           int32
	lat, call, end time.Duration
}

// recorder reduces one client's ops to per-block statistics as the run
// goes. A run is cut into blocks of equal time; each end-to-end op
// metric is computed per block and the median over blocks reported, so
// a burst of noise from the machine in one part of a run moves it less.
// Only the current block's ops are kept, so the benchmark's own memory
// does not grow with the run.
type recorder struct {
	npairs   int
	blockDur time.Duration
	block    int
	ops      []op
	blocks   int
	// Per finished block: latency percentiles and the geometric mean of
	// per-pair median call times.
	p50, p90, exec []float64
}

func newRecorder(npairs, blocks int, d time.Duration) *recorder {
	return &recorder{npairs: npairs, blockDur: d / time.Duration(blocks),
		blocks: blocks, ops: make([]op, 0, 1<<14)}
}

func (r *recorder) add(o op) {
	b := min(int(o.end/r.blockDur), r.blocks-1)
	if b != r.block {
		r.flush()
		r.block = b
	}
	r.ops = append(r.ops, o)
}

// flush reduces the current block's ops to its statistics.
func (r *recorder) flush() {
	if len(r.ops) == 0 {
		return
	}
	lats := make([]time.Duration, len(r.ops))
	calls := make([][]time.Duration, r.npairs)
	for i, o := range r.ops {
		lats[i] = o.lat
		calls[o.pair] = append(calls[o.pair], o.call)
	}
	r.p50 = append(r.p50, quantile(lats, 0.5))
	r.p90 = append(r.p90, quantile(lats, 0.9))
	r.exec = append(r.exec, geomeanMedians(calls))
	r.ops = r.ops[:0]
}

// opStats fills the end-to-end op metrics from the clients' recorders:
// medians over every (client, block).
func opStats(r *report, recs []*recorder) {
	var p50, p90, exec []float64
	for _, rec := range recs {
		rec.flush()
		p50 = append(p50, rec.p50...)
		p90 = append(p90, rec.p90...)
		exec = append(exec, rec.exec...)
	}
	r.metrics["op_p50_us"] = medianOf(p50)
	r.metrics["op_p90_us"] = medianOf(p90)
	r.metrics["exec_geomean_ms"] = medianOf(exec)
}

// appender returns a sink that keeps every op, for the traced run.
func appender(ops *[]op) func(op) { return func(o op) { *ops = append(*ops, o) } }

func medianOf(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// gcHeadroom is how much garbage the timed loops let the heap gather
// between collections. Go's default policy (collect when the heap
// doubles) collected cold-start's 5 MB live heap about 400 times a
// second with a fifth of the CPU in the collector; about 15% of ops
// were stalled past 1 ms, so p90 fell among them. With 32 MiB of
// headroom about 3% of ops overlap a collection, which leaves p50 and
// p90 to the ops themselves; 512 MiB made the first seconds of a run pay
// the page faults of growing the heap. Hot-kernels and pooled-serving
// run under this policy; cold-start collects between ops instead
// (coldGCEvery).
const gcHeadroom = 32 << 20

// timeSetups runs setup c.warmups+c.setups times, under Go's default
// collector policy, and stores the median duration of the last
// c.setups as setup_s. Between two set-ups it tears the previous one
// down, collects its garbage and returns the freed memory to the OS,
// untimed, so every set-up starts from the same heap and maps its
// memory afresh, as a new process would. (When set-ups could reuse
// what the runtime had not yet returned, pooled-serving's ranged from
// 3 to 15 ms in one run and the median of fifteen spread 0.51 over
// five seeds.) The last set-up stays in place. It then switches the
// collector to the timed loops' policy: collect when the process's
// memory has grown gcHeadroom past what the set-up keeps.
func timeSetups(c *config, r *report, setup func() error, teardown func()) error {
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)
	var ds []time.Duration
	for i := range c.warmups + c.setups {
		if i > 0 {
			teardown()
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if i >= c.warmups {
			ds = append(ds, time.Since(t0))
		}
	}
	r.metrics["setup_s"] = median(ds) / 1e6
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	debug.SetMemoryLimit(int64(ms.Sys-ms.HeapReleased) + gcHeadroom)
	debug.SetGCPercent(-1)
	return nil
}

// overhead reports how much slower the traced half of a traced run was
// than its untraced half, by median op latency.
func overhead(r *report, untraced, traced []op) {
	if u := median(latencies(untraced)); u > 0 {
		r.metrics["trace.overhead_pct"] = (median(latencies(traced))/u - 1) * 100
	}
}

func latencies(ops []op) []time.Duration {
	ds := make([]time.Duration, len(ops))
	for i, o := range ops {
		ds[i] = o.lat
	}
	return ds
}

// liveHeapMB collects garbage and returns the live Go heap in MiB: the
// memory state keeps — the workload's engines, caches, pools and
// instances. It collects twice so sync.Pool's victim cache is emptied
// too.
func liveHeapMB(state any) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(state)
	return float64(ms.HeapAlloc) / (1 << 20)
}

var runners = map[string]func(*config) (*report, error){
	"cold-start":     coldStart,
	"hot-kernels":    hotKernels,
	"pooled-serving": pooledServing,
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

type metricSpec struct{ Name, Unit string }

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// run executes one workload and shapes its report by the spec: the
// end-to-end metrics, or with tracing the per-layer ones. A metric the
// spec names but the workload did not measure is an error.
func run(name string, c *config, s *spec) (*result, error) {
	wl, ok := runners[name]
	if !ok {
		known := make([]string, 0, len(runners))
		for k := range runners {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(known, ", "))
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, err
	}
	rep, err := wl(c)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	want := s.EndToEnd
	if c.trace {
		want = s.PerLayer
	}
	res := &result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, m := range want {
		v, ok := rep.metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %q not measured", name, m.Name)
		}
		res.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// The benchmark runs from the repository root: it reads the metric
// names there and keeps each run's disk cache and spans under workDir.
const (
	specPath = "BENCHMARK.json"
	workDir  = ".bench_build/perfbench"
)

func main() {
	workload := flag.String("workload", "", "workload to run: cold-start, hot-kernels or pooled-serving")
	seed := flag.Uint64("seed", 1, "seed for the item order, op mix and request arguments")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traceOn := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	if *seconds < 1 || !slices.Contains([]int{0, 1}, *traceOn) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	s, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	c := &config{
		seed:    *seed,
		dur:     time.Duration(*seconds) * time.Second,
		trace:   *traceOn == 1,
		dir:     filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
		setups:  25,
		warmups: 5,
	}
	res, err := run(*workload, c, s)
	if rmErr := os.RemoveAll(c.dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: remove run directory:", rmErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// traceFile is where a traced run writes its spans: beside its run
// directory, which holds only the disk cache and is removed at exit.
func traceFile(c *config) string { return c.dir + ".spans.tsv" }
