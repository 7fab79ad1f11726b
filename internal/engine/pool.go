package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"wizgo/internal/instancepool"
	"wizgo/internal/rt"
)

// Snapshot is the post-instantiation state of an instance — linear
// memory after data segments and the start function, globals, and
// tables — captured once and shared read-only by every reset against
// it. It is the baseline the instance pool restores instances to.
//
// Only state the instance OWNS is captured: an imported memory, table
// or global belongs to its exporting instance, and resetting it from
// here would roll back state the exporter (and every other importer)
// still depends on. For a module whose memory is imported, mem is nil
// and reset leaves the shared memory untouched.
type Snapshot struct {
	mem     []byte          // nil when the memory is imported
	globals []rt.GlobalSlot // owned globals only (indices ≥ ImportedGlobals)
	tables  [][]uint64      // owned tables only (indices ≥ ImportedTables)
}

// Snapshot captures the instance's current owned memory, globals and
// tables. Call it on a quiescent instance, normally right after
// instantiation.
func (inst *Instance) Snapshot() *Snapshot {
	ri := inst.RT
	s := &Snapshot{}
	if ri.OwnsMemory {
		// make (not a nil literal) so a zero-size owned memory still
		// yields a non-nil snapshot, which Reset uses to distinguish
		// "owned but empty" from "imported".
		s.mem = append(make([]byte, 0, len(ri.Memory.Data)), ri.Memory.Data...)
	}
	for _, g := range ri.Globals[ri.ImportedGlobals:] {
		s.globals = append(s.globals, *g)
	}
	for _, t := range ri.Tables[ri.ImportedTables:] {
		s.tables = append(s.tables, append([]uint64(nil), t.Elems...))
	}
	return s
}

// Reset restores the instance to the snapshot state: owned linear
// memory via the memory's dirty-granule tracking (only granules written
// since the last reset are copied back; see rt.Memory.ResetTo), owned
// globals and tables wholesale (they are small). Imported memory,
// tables and globals are deliberately NOT restored — the instance does
// not own them, and their exporter (or its own pool) is responsible for
// their lifecycle. The execution context is cleared of any aborted-call
// residue, and a Released instance is re-armed with a recycled value
// stack and, if Release pooled its memory, a recycled memory restored
// from the snapshot in full. The value stack itself is reused dirty for
// the same reason Release can pool it: executors never read slots they
// have not written.
//
// Per-function tier state (lazily compiled code, call counts, attached
// probes) is deliberately retained — a recycled instance stays warm,
// and none of it is observable in execution results.
func (inst *Instance) Reset(s *Snapshot) error {
	ri := inst.RT
	if ri.Poisoned {
		// A host panic interrupted arbitrary host-side work: the snapshot
		// can restore guest-visible state, but nothing can vouch for what
		// the host half-finished (external handles, partially written
		// side state). Refuse, so pools drop the instance instead of
		// recycling it.
		return fmt.Errorf("engine: %w: host panic left the instance in an unknown state", instancepool.ErrPoisoned)
	}
	if inst.Ctx.Depth != 0 || len(inst.Ctx.Frames) != 0 {
		return fmt.Errorf("engine: cannot reset an instance with a call in progress")
	}
	ownedGlobals := ri.Globals[ri.ImportedGlobals:]
	ownedTables := ri.Tables[ri.ImportedTables:]
	if len(ownedGlobals) != len(s.globals) || len(ownedTables) != len(s.tables) ||
		ri.OwnsMemory != (s.mem != nil) {
		return fmt.Errorf("engine: snapshot shape mismatch: %d/%d owned globals, %d/%d owned tables, owns-memory %v/%v",
			len(ownedGlobals), len(s.globals), len(ownedTables), len(s.tables),
			ri.OwnsMemory, s.mem != nil)
	}
	if ri.OwnsMemory {
		if ri.Memory == nil {
			// Release recycled the memory. Take an all-zero one and
			// declare it wholly dirty, so the restore below copies the
			// whole snapshot.
			ri.Memory = inst.Engine.acquireMemory(ri.Module.Memories[0])
			ri.Memory.MarkAll()
		}
		// Every top-level call since the last reset proven read-only by
		// the static analysis (MemTouched never set) means the memory
		// still equals the snapshot — skip the restore. Grown() catches
		// the paths that bypass the proof (host writes via MarkAll,
		// memory.grow), so the skip is belt-and-suspenders sound.
		if ri.MemTouched || ri.Memory.Grown() {
			ri.Memory.ResetTo(s.mem)
		}
		ri.MemTouched = false
	}
	for i, g := range ownedGlobals {
		*g = s.globals[i]
	}
	for i, t := range ownedTables {
		if len(t.Elems) != len(s.tables[i]) {
			t.Elems = append(t.Elems[:0], s.tables[i]...)
		} else {
			copy(t.Elems, s.tables[i])
		}
	}
	inst.Ctx.Resume = rt.FrameInfo{}
	if inst.Ctx.Stack == nil {
		inst.Ctx.Stack = inst.Engine.stacks.Get().(*rt.ValueStack)
		inst.released.Store(false)
	}
	return nil
}

// InstancePool recycles whole instances of one CompiledModule: Get
// returns an instance reset to its post-instantiation state (memory,
// globals, tables), instantiating fresh only when the pool is empty.
// The reset itself runs in the background after Put, so a steady-state
// Get pays neither instantiation nor reset — instancepool.Stats splits
// the reset latency into the on-put (hidden) and on-get (request-path)
// shares. It is the engine-typed facade over instancepool.Pool and is
// safe for concurrent use.
type InstancePool struct {
	cm       *CompiledModule
	pool     *instancepool.Pool[*Instance]
	snap     atomic.Pointer[Snapshot]
	snapOnce sync.Once
}

// NewPool creates an instance pool retaining up to capacity idle
// instances (capacity <= 0 selects the instancepool default).
//
// The reset baseline is the post-instantiation state of the first
// instance the pool creates; modules whose start function is
// nondeterministic (e.g. via host imports) would make that baseline
// instance-specific and should not be pooled. Instances obtained from
// Get must not be Released while still in the pool's custody — return
// them with Put, which releases on overflow.
func (cm *CompiledModule) NewPool(capacity int) *InstancePool {
	ip := &InstancePool{cm: cm}
	pool, err := instancepool.New(instancepool.Config[*Instance]{
		Capacity: capacity,
		New:      ip.newInstance,
		Reset:    func(inst *Instance) error { return inst.Reset(ip.snap.Load()) },
		Discard: func(inst *Instance) {
			// A discard can follow a failed reset, and a reset fails
			// when the instance was Put with a call still in progress —
			// releasing then would pool a stack that call is executing
			// on. Leaking the misused instance is always safe; pooling
			// its stack is not. A poisoned instance's stack is equally
			// suspect (the panic may have unwound past frame cleanup),
			// so it is leaked with the instance.
			if !inst.RT.Poisoned && inst.Ctx.Depth == 0 && len(inst.Ctx.Frames) == 0 {
				inst.Release()
			}
		},
	})
	if err != nil {
		// Unreachable: both callbacks are always supplied.
		panic(err)
	}
	ip.pool = pool
	return ip
}

// newInstance is the pool's miss path: instantiate, capture the shared
// reset baseline the first time, and start write tracking so the next
// reset copies only what the instance's runs actually dirtied.
func (ip *InstancePool) newInstance() (*Instance, error) {
	inst, err := ip.cm.Instantiate()
	if err != nil {
		return nil, err
	}
	// Every fresh instance is an equally valid baseline; the Once keeps
	// concurrent cold misses from each copying a multi-megabyte memory
	// only to discard all but one.
	ip.snapOnce.Do(func() { ip.snap.Store(inst.Snapshot()) })
	// Only an owned memory is reset (and therefore worth tracking);
	// tracking an imported memory would tax the exporter's writes for a
	// reset that never happens here.
	if inst.RT.OwnsMemory {
		inst.RT.Memory.EnableWriteTracking()
	}
	return inst, nil
}

// Get returns a ready instance: recycled (already reset in the
// background when the pool kept pace) when possible, freshly
// instantiated otherwise.
func (ip *InstancePool) Get() (*Instance, error) { return ip.pool.Get() }

// Put returns a quiescent instance obtained from Get for recycling and
// schedules its copy-on-write reset off the request path.
func (ip *InstancePool) Put(inst *Instance) { ip.pool.Put(inst) }

// Stats returns the pool's counters (get/reset/miss latencies, hit and
// drop counts).
func (ip *InstancePool) Stats() instancepool.Stats { return ip.pool.Stats() }

// Len returns the number of idle instances.
func (ip *InstancePool) Len() int { return ip.pool.Len() }

// Close releases every idle instance; subsequent Gets still work but
// always instantiate fresh.
func (ip *InstancePool) Close() { ip.pool.Close() }
