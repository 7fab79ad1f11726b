package engine

import (
	"fmt"
	"sync"

	"wizgo/internal/rt"
	"wizgo/internal/wasm"
)

// externKey is the namespaced identity of a linker definition. Imports
// resolve per (module, name) pair; using a struct key (rather than a
// joined string) keeps ("a.b","c") and ("a","b.c") distinct.
type externKey struct {
	Module, Name string
}

func (k externKey) String() string { return k.Module + "." + k.Name }

// Linker resolves module imports to external values in named
// namespaces: host functions, host-provided memories/tables/globals,
// and — via DefineInstance — the exports of already-instantiated
// modules, which is how instance A imports B's memory and calls B's
// functions.
//
// A Linker is safe for concurrent use: definitions take a write lock,
// and engine.New snapshots the definitions under a read lock, so an
// engine never observes later mutations (registering with one linker
// while another goroutine instantiates through an engine built from it
// is race-free; the engine simply keeps resolving against the state it
// snapshotted).
type Linker struct {
	mu   sync.RWMutex
	defs map[externKey]rt.Extern
}

// NewLinker returns an empty linker.
func NewLinker() *Linker {
	return &Linker{defs: make(map[externKey]rt.Extern)}
}

func (l *Linker) define(module, name string, ext rt.Extern) error {
	key := externKey{module, name}
	switch ext.Kind {
	case wasm.ExternFunc:
		if (ext.HostFunc == nil) == (ext.Func == nil) {
			return fmt.Errorf("engine: %s: a function extern needs exactly one of HostFunc and Func", key)
		}
	case wasm.ExternMemory:
		if ext.Memory == nil {
			return fmt.Errorf("engine: %s: memory extern has no memory", key)
		}
	case wasm.ExternTable:
		if ext.Table == nil {
			return fmt.Errorf("engine: %s: table extern has no table", key)
		}
	case wasm.ExternGlobal:
		if ext.Global.Cell == nil {
			return fmt.Errorf("engine: %s: global extern has no cell", key)
		}
	default:
		return fmt.Errorf("engine: %s: unknown extern kind %d", key, ext.Kind)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.defs[key]; ok {
		return fmt.Errorf("engine: %s already defined as a %s", key, prev.Kind)
	}
	l.defs[key] = ext
	return nil
}

// Func registers a host function under module.name. It is the legacy
// chaining API: redefinitions panic (they always clobbered silently
// before; a panic surfaces the bug). New code should prefer DefineFunc.
func (l *Linker) Func(module, name string, ft wasm.FuncType, fn rt.HostFunc) *Linker {
	if err := l.DefineFunc(module, name, ft, fn); err != nil {
		panic(err)
	}
	return l
}

// DefineFunc registers a host function under module.name. The function
// runs in the calling instance's execution context.
func (l *Linker) DefineFunc(module, name string, ft wasm.FuncType, fn rt.HostFunc) error {
	return l.define(module, name, rt.Extern{
		Kind: wasm.ExternFunc, FuncType: ft, HostFunc: fn,
	})
}

// DefineMemory registers a linear memory under module.name. Instances
// importing it share the memory with every other importer (and with the
// host): writes are immediately visible to all of them.
func (l *Linker) DefineMemory(module, name string, mem *rt.Memory) error {
	return l.define(module, name, rt.Extern{Kind: wasm.ExternMemory, Memory: mem})
}

// DefineTable registers a funcref table under module.name. Tables taken
// from an Instance's exports carry the owner's function resolution
// (rt.Table.Funcs); a host-built table without one is only useful for
// null entries — call_indirect through an entry the table cannot
// resolve traps (TrapNullFunc) rather than dispatching.
func (l *Linker) DefineTable(module, name string, table *rt.Table) error {
	return l.define(module, name, rt.Extern{Kind: wasm.ExternTable, Table: table})
}

// DefineGlobal registers a global cell under module.name with its
// declared type and mutability. Importers alias the cell: a mutation by
// one instance is visible to all.
func (l *Linker) DefineGlobal(module, name string, t wasm.ValueType, mutable bool, cell *rt.GlobalSlot) error {
	return l.define(module, name, rt.Extern{
		Kind:   wasm.ExternGlobal,
		Global: rt.ExternGlobal{Type: t, Mutable: mutable, Cell: cell},
	})
}

// DefineExtern registers a pre-built external value under module.name.
func (l *Linker) DefineExtern(module, name string, ext rt.Extern) error {
	return l.define(module, name, ext)
}

// DefineInstance registers every export of an instantiated module under
// the given namespace, making them importable by modules instantiated
// later: functions dispatch into the exporting instance's execution
// context through the engine's cross-tier invoke path, and memories,
// tables and globals are shared (aliased, not copied) — instance A
// importing B's memory observes B's writes and vice versa.
//
// The exporting instance must outlive every importer, and — like all
// instance state — shared externals are not synchronized: two instances
// must not execute concurrently against a shared memory. Because
// importers alias an exported memory, Release never recycles it.
// DefineInstance is atomic: if any export's name collides with an
// existing definition, nothing is registered.
func (l *Linker) DefineInstance(namespace string, inst *Instance) error {
	exts := inst.exports()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ext := range exts {
		key := externKey{namespace, ext.name}
		if prev, ok := l.defs[key]; ok {
			return fmt.Errorf("engine: %s already defined as a %s", key, prev.Kind)
		}
	}
	for _, ext := range exts {
		l.defs[externKey{namespace, ext.name}] = ext.ext
		if ext.ext.Kind == wasm.ExternMemory {
			inst.memShared.Store(true)
		}
	}
	return nil
}

// snapshot copies the current definitions; engine.New freezes the
// result so later linker mutations cannot race with instantiation.
func (l *Linker) snapshot() map[externKey]rt.Extern {
	l.mu.RLock()
	defer l.mu.RUnlock()
	defs := make(map[externKey]rt.Extern, len(l.defs))
	for k, v := range l.defs {
		defs[k] = v
	}
	return defs
}

// namedExtern is one exported external value of an instance.
type namedExtern struct {
	name string
	ext  rt.Extern
}

// exports enumerates the instance's exports as external values, the
// form DefineInstance registers.
func (inst *Instance) exports() []namedExtern {
	m := inst.RT.Module
	exts := make([]namedExtern, 0, len(m.Exports))
	for _, e := range m.Exports {
		switch e.Kind {
		case wasm.ExternFunc:
			f := inst.RT.Funcs[e.Idx]
			exts = append(exts, namedExtern{e.Name, rt.Extern{
				Kind: wasm.ExternFunc, FuncType: f.Type, Func: f,
			}})
		case wasm.ExternMemory:
			exts = append(exts, namedExtern{e.Name, rt.Extern{
				Kind: wasm.ExternMemory, Memory: inst.RT.Memory,
			}})
		case wasm.ExternTable:
			exts = append(exts, namedExtern{e.Name, rt.Extern{
				Kind: wasm.ExternTable, Table: inst.RT.Tables[e.Idx],
			}})
		case wasm.ExternGlobal:
			t, mut, err := m.GlobalTypeAt(e.Idx)
			if err != nil {
				continue // unreachable: exports are validated
			}
			exts = append(exts, namedExtern{e.Name, rt.Extern{
				Kind:   wasm.ExternGlobal,
				Global: rt.ExternGlobal{Type: t, Mutable: mut, Cell: inst.RT.Globals[e.Idx]},
			}})
		}
	}
	return exts
}
