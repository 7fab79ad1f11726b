// Package difftest is the differential testing engine for the
// execution tiers: a structure-aware module generator (gen.go), a
// cross-execution oracle that runs each module through every
// engines.Catalog() configuration crossed with the static analysis on
// and off, and an automatic minimizer (minimize.go) that shrinks any
// diverging module into a checked-in reproducer (corpus.go).
//
// The repo's unique asset is four executors — in-place interpreter,
// rewriting interpreter, single-pass compiler, and the tiered pipeline
// that transitions between them — for one Wasm semantics, a second code
// generator (the copy-and-patch templates) for the machine-code
// executor, and an analysis on/off axis that licenses check elision in
// every tier. Any observable difference between two cells of that
// matrix is a bug by construction, which makes random differential
// testing the highest-leverage correctness tool the repo has: no
// hand-written expectations, just agreement.
//
// An execution's observable behavior is canonicalized into an Outcome:
// per-call results (with NaN payloads canonicalized, since Wasm permits
// any NaN bit pattern) or trap kind, plus the final linear memory hash
// and final global values. Runs that hit the safety-net deadline
// (TrapInterrupted) are timing-dependent and excluded from comparison.
//
// Each run ends with a recycle step: the instance is Released, the
// module instantiated again on the same engine, and the new instance's
// post-link memory must hash equal to the first one's. Released
// memories are recycled by clearing only the granules the executors
// marked dirty, so this checks the dirty tracking of every store path
// the generator reaches, in every configuration.
package difftest

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"time"

	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/rt"
	"wizgo/internal/wasm"
)

// Call is one export invocation of the oracle's workload: every
// generated module carries the calls that exercise it, and reproducers
// persist them alongside the module bytes.
type Call struct {
	Export string       `json:"export"`
	Args   []wasm.Value `json:"-"`
}

// Generated is a module plus the calls that exercise it — the unit the
// oracle executes and the minimizer shrinks.
type Generated struct {
	Seed  int64
	Bytes []byte
	Calls []Call
}

// CallOutcome is the canonical observable result of one export call.
type CallOutcome struct {
	Export  string
	Trapped bool
	Trap    rt.TrapKind
	// Results holds canonicalized result bits (NaNs normalized to the
	// canonical quiet NaN of their type). Empty when the call trapped.
	Results []uint64
	// Err records a non-trap harness error (unknown export, argument
	// mismatch); such errors come from shared pre-execution code and
	// must also agree across configurations.
	Err string
}

// Outcome is everything a run of one module under one engine
// configuration can observe: whether setup rejected the module (and in
// which phase), each call's result or trap, and the final instance
// state.
type Outcome struct {
	// Rejected is true when the module never reached execution;
	// RejectPhase says which phase refused it ("compile" covers
	// decode/validate/tier-compile, "instantiate" covers link + start).
	Rejected    bool
	RejectPhase string
	RejectErr   string

	Calls []CallOutcome

	// MemPages/MemHash digest the final linear memory; Globals holds
	// the final value bits of every global (canonicalized).
	MemPages uint32
	MemHash  uint64
	Globals  []uint64

	// RecycleLeak is non-empty when the recycle step found the
	// re-instantiated module's post-link memory differing from the
	// first instance's: a released instance's write survived clearing.
	// It is a failure of its own configuration, whatever the others do.
	RecycleLeak string

	// Interrupted is true when any call hit TrapInterrupted: the run
	// crossed the oracle deadline, so the outcome is timing-dependent
	// and incomparable.
	Interrupted bool
}

// EngineOutcome pairs an outcome with the configuration that produced it.
type EngineOutcome struct {
	Config  string
	Outcome Outcome
}

// Divergence describes the first observable difference between two
// configurations' outcomes for one module.
type Divergence struct {
	Seed     int64
	ConfigA  string
	ConfigB  string
	Detail   string
	Outcomes []EngineOutcome
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("difftest: divergence (seed %d): %s vs %s: %s",
		d.Seed, d.ConfigA, d.ConfigB, d.Detail)
}

// canonNaN32/canonNaN64 are the canonical quiet NaN bit patterns the
// oracle normalizes every NaN to before comparing: Wasm leaves NaN
// payloads nondeterministic, so bitwise-distinct NaNs are not a
// divergence.
const (
	canonNaN32 = uint64(0x7fc00000)
	canonNaN64 = uint64(0x7ff8000000000000)
)

// canonBits canonicalizes one value's bits for comparison.
func canonBits(t wasm.ValueType, bits uint64) uint64 {
	switch t {
	case wasm.F32:
		if f := math.Float32frombits(uint32(bits)); f != f {
			return canonNaN32
		}
	case wasm.F64:
		if f := math.Float64frombits(bits); f != f {
			return canonNaN64
		}
	}
	return bits
}

// Oracle owns one engine per matrix configuration and cross-executes
// modules through all of them. Engines are reused across modules so
// value stacks recycle through the per-engine pools; an Oracle is not
// goroutine-safe.
type Oracle struct {
	cfgs    []engine.Config
	engines []*engine.Engine
	// Deadline bounds each export call; generated modules terminate by
	// construction, so this is a safety net, and runs that hit it are
	// excluded from comparison as timing-dependent.
	Deadline time.Duration
	// Fuel, when positive, runs every export call under that per-call
	// fuel budget. Fuel charging is deterministic (one unit per function
	// entry and loop-header arrival, identically in every tier), so a
	// budget small enough to trip mid-run must produce TrapFuelExhausted
	// in ALL configurations or none — a disagreement is a real
	// divergence, exactly like a bounds-check disagreement.
	Fuel int64
}

// NewOracle builds the oracle over engines.DifferentialMatrix().
func NewOracle() *Oracle { return NewOracleOver(engines.DifferentialMatrix()) }

// NewOracleOver builds the oracle over the given configurations; the
// first is the reference the others are compared against. The value
// stacks are sized down from the engine default: generated functions
// are small and the oracle holds one stack per configuration.
func NewOracleOver(cfgs []engine.Config) *Oracle {
	o := &Oracle{Deadline: 2 * time.Second}
	for _, cfg := range cfgs {
		cfg.StackSlots = 1 << 16
		o.cfgs = append(o.cfgs, cfg)
		o.engines = append(o.engines, engine.New(cfg, nil))
	}
	return o
}

// Configs returns the matrix configuration names, in execution order.
func (o *Oracle) Configs() []string {
	names := make([]string, len(o.cfgs))
	for i, c := range o.cfgs {
		names[i] = c.Name
	}
	return names
}

// Run executes g under every matrix configuration and compares the
// canonical outcomes. A nil Divergence means all configurations agreed
// (or some run crossed the deadline, making the module incomparable).
func (o *Oracle) Run(g Generated) ([]EngineOutcome, *Divergence) {
	outs := make([]EngineOutcome, len(o.engines))
	for i, e := range o.engines {
		outs[i] = EngineOutcome{
			Config:  o.cfgs[i].Name,
			Outcome: o.execute(e, g),
		}
		if outs[i].Outcome.Interrupted {
			return outs, nil
		}
	}
	if d := Compare(outs); d != nil {
		d.Seed = g.Seed
		d.Outcomes = outs
		return outs, d
	}
	return outs, nil
}

// Diverges reports whether g still diverges — the minimizer's predicate.
func (o *Oracle) Diverges(g Generated) bool {
	_, d := o.Run(g)
	return d != nil
}

// execute runs one module under one engine and captures its canonical
// outcome.
func (o *Oracle) execute(e *engine.Engine, g Generated) Outcome {
	var out Outcome
	cm, err := e.Compile(g.Bytes)
	if err != nil {
		out.Rejected, out.RejectPhase, out.RejectErr = true, "compile", err.Error()
		return out
	}
	inst, err := cm.Instantiate()
	if err != nil {
		out.Rejected, out.RejectPhase, out.RejectErr = true, "instantiate", err.Error()
		return out
	}
	linkHash := memHash(inst.RT.Memory)

	for _, call := range g.Calls {
		co := CallOutcome{Export: call.Export}
		goctx, cancel := context.WithTimeout(context.Background(), o.Deadline)
		results, err := inst.CallWith(goctx, engine.CallOpts{Fuel: o.Fuel}, call.Export, call.Args...)
		cancel()
		if err != nil {
			var trap *rt.Trap
			if errors.As(err, &trap) {
				co.Trapped, co.Trap = true, trap.Kind
				if trap.Kind == rt.TrapInterrupted {
					out.Interrupted = true
				}
			} else {
				co.Err = err.Error()
			}
		} else {
			for _, v := range results {
				co.Results = append(co.Results, canonBits(v.Type, v.Bits))
			}
		}
		out.Calls = append(out.Calls, co)
	}

	ri := inst.RT
	out.MemPages = ri.Memory.Pages()
	out.MemHash = memHash(ri.Memory)
	m := ri.Module
	for gi, slot := range ri.Globals {
		t, _, err := m.GlobalTypeAt(uint32(gi))
		if err != nil {
			t = wasm.I64 // unreachable for linked instances; keep raw bits
		}
		out.Globals = append(out.Globals, canonBits(t, slot.Bits))
	}

	inst.Release()
	again, err := cm.Instantiate()
	if err != nil {
		out.RecycleLeak = "re-instantiate: " + err.Error()
		return out
	}
	if h := memHash(again.RT.Memory); h != linkHash {
		out.RecycleLeak = fmt.Sprintf("post-link memory hash %#x after recycling, %#x before", h, linkHash)
	}
	again.Release()
	return out
}

func memHash(mem *rt.Memory) uint64 {
	h := fnv.New64a()
	h.Write(mem.Data)
	return h.Sum64()
}

// Compare finds the first divergence between outs[0] and each other
// outcome. A configuration whose recycle step failed is a divergence by
// itself, reported against that configuration alone. Outcomes flagged
// Interrupted never participate.
func Compare(outs []EngineOutcome) *Divergence {
	var base *EngineOutcome
	for i := range outs {
		if outs[i].Outcome.Interrupted {
			continue
		}
		if leak := outs[i].Outcome.RecycleLeak; leak != "" {
			return &Divergence{ConfigA: outs[i].Config, ConfigB: outs[i].Config, Detail: "recycle: " + leak}
		}
		if base == nil {
			base = &outs[i]
			continue
		}
		if detail := diffOutcome(base.Outcome, outs[i].Outcome); detail != "" {
			return &Divergence{ConfigA: base.Config, ConfigB: outs[i].Config, Detail: detail}
		}
	}
	return nil
}

// diffOutcome returns a description of the first difference between two
// canonical outcomes, or "" when they agree.
func diffOutcome(a, b Outcome) string {
	if a.Rejected != b.Rejected {
		return fmt.Sprintf("rejection: %v (%s %s) vs %v (%s %s)",
			a.Rejected, a.RejectPhase, a.RejectErr, b.Rejected, b.RejectPhase, b.RejectErr)
	}
	if a.Rejected {
		if a.RejectPhase != b.RejectPhase {
			return fmt.Sprintf("rejection phase: %s (%s) vs %s (%s)",
				a.RejectPhase, a.RejectErr, b.RejectPhase, b.RejectErr)
		}
		return ""
	}
	if len(a.Calls) != len(b.Calls) {
		return fmt.Sprintf("call count: %d vs %d", len(a.Calls), len(b.Calls))
	}
	for i := range a.Calls {
		ca, cb := a.Calls[i], b.Calls[i]
		if ca.Trapped != cb.Trapped || ca.Trap != cb.Trap {
			return fmt.Sprintf("call %s: trap %s vs %s", ca.Export, trapLabel(ca), trapLabel(cb))
		}
		if ca.Err != cb.Err {
			return fmt.Sprintf("call %s: error %q vs %q", ca.Export, ca.Err, cb.Err)
		}
		if len(ca.Results) != len(cb.Results) {
			return fmt.Sprintf("call %s: result count %d vs %d", ca.Export, len(ca.Results), len(cb.Results))
		}
		for j := range ca.Results {
			if ca.Results[j] != cb.Results[j] {
				return fmt.Sprintf("call %s: result %d: %#x vs %#x", ca.Export, j, ca.Results[j], cb.Results[j])
			}
		}
	}
	if a.MemPages != b.MemPages {
		return fmt.Sprintf("final memory pages: %d vs %d", a.MemPages, b.MemPages)
	}
	if a.MemHash != b.MemHash {
		return fmt.Sprintf("final memory hash: %#x vs %#x", a.MemHash, b.MemHash)
	}
	if len(a.Globals) != len(b.Globals) {
		return fmt.Sprintf("global count: %d vs %d", len(a.Globals), len(b.Globals))
	}
	for i := range a.Globals {
		if a.Globals[i] != b.Globals[i] {
			return fmt.Sprintf("final global %d: %#x vs %#x", i, a.Globals[i], b.Globals[i])
		}
	}
	return ""
}

func trapLabel(c CallOutcome) string {
	if !c.Trapped {
		return "none"
	}
	return c.Trap.String()
}

// OutcomeTable renders the per-configuration outcomes as an aligned
// text table, the human-readable half of a reproducer.
func OutcomeTable(outs []EngineOutcome) string {
	var sb strings.Builder
	for _, eo := range outs {
		o := eo.Outcome
		fmt.Fprintf(&sb, "%-24s", eo.Config)
		switch {
		case o.Rejected:
			fmt.Fprintf(&sb, " rejected(%s): %s", o.RejectPhase, o.RejectErr)
		case o.Interrupted:
			fmt.Fprintf(&sb, " interrupted (deadline)")
		default:
			for _, c := range o.Calls {
				if c.Trapped {
					fmt.Fprintf(&sb, " %s=trap:%s", c.Export, c.Trap)
				} else if c.Err != "" {
					fmt.Fprintf(&sb, " %s=err:%s", c.Export, c.Err)
				} else {
					fmt.Fprintf(&sb, " %s=%v", c.Export, c.Results)
				}
			}
			fmt.Fprintf(&sb, " mem=%#x globals=%v", o.MemHash, o.Globals)
			if o.RecycleLeak != "" {
				fmt.Fprintf(&sb, " recycle-leak: %s", o.RecycleLeak)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
