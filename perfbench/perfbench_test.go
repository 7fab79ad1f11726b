package main

import (
	"encoding/json"
	"flag"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite expected.json from the in-place interpreter")

// TestExpected checks the committed checksums against the in-place
// interpreter, the reference tier; -update records them.
func TestExpected(t *testing.T) {
	cfg, _ := engines.ByName("wizeng-int")
	e := engine.New(cfg, nil)
	got := map[string]expected{}
	for _, it := range workloads.All() {
		inst, err := e.Instantiate(it.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		inst.Ctx.CountStats = true
		if _, err := inst.Call("_start"); err != nil {
			t.Fatalf("%s: %v", itemKey(it), err)
		}
		v, err := inst.Call("checksum")
		if err != nil {
			t.Fatalf("%s: %v", itemKey(it), err)
		}
		got[itemKey(it)] = expected{Checksum: v[0].I64(), Ops: inst.Ctx.Stats.InterpOps}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := expectedItems()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("expected.json has %d items, the suites %d", len(want), len(got))
	}
	for k, v := range got {
		if want[k] != v {
			t.Errorf("%s: interpreter gives %+v, expected.json %+v", k, v, want[k])
		}
	}
}

// deterministic reports whether a metric is a count that must repeat
// exactly across runs on one seed.
func deterministic(name string) bool {
	switch name {
	case "code_bytes", "engine.compile_calls", "analysis.checks_elided", "rt.traps",
		"codecache.disk_hit_ratio", "engine.osr_ups", "engine.deopts":
		return true
	}
	return strings.HasSuffix(name, ".code_bytes") || strings.HasSuffix(name, ".ops")
}

// TestDeterministicMetrics runs each workload's traced run twice on one
// seed and requires every deterministic metric to repeat exactly and
// every op to succeed.
func TestDeterministicMetrics(t *testing.T) {
	s, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range append(slices.Clone(s.EndToEnd), s.PerLayer...) {
		if deterministic(m.Name) {
			names = append(names, m.Name)
		}
	}
	if len(names) < 10 {
		t.Fatalf("only %d deterministic metrics in the spec: %v", len(names), names)
	}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			var runs [2]map[string]float64
			for i := range runs {
				c := &config{seed: 7, dur: 200 * time.Millisecond, trace: true,
					dir: t.TempDir() + "/run", setups: 1}
				rep, err := runners[w.Name](c)
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 {
					t.Fatalf("run %d: %d of %d ops failed", i, rep.failed, rep.attempted)
				}
				runs[i] = rep.metrics
			}
			for _, n := range names {
				a, ok := runs[0][n]
				if !ok {
					t.Errorf("%s not measured", n)
					continue
				}
				if b := runs[1][n]; a != b {
					t.Errorf("%s: %v then %v", n, a, b)
				}
			}
		})
	}
}
