package rt

import (
	"testing"

	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

func TestMemoryGrowAndBounds(t *testing.T) {
	m := NewMemory(wasm.Limits{Min: 1, Max: 3, HasMax: true})
	if m.Pages() != 1 {
		t.Fatalf("pages = %d", m.Pages())
	}
	if old := m.Grow(1); old != 1 {
		t.Fatalf("grow returned %d", old)
	}
	if old := m.Grow(5); old != -1 {
		t.Fatalf("over-max grow returned %d", old)
	}
	if !m.InBounds(0, 0, 4) || !m.InBounds(wasm.PageSize*2-4, 0, 4) {
		t.Error("in-bounds access rejected")
	}
	if m.InBounds(wasm.PageSize*2-3, 0, 4) {
		t.Error("out-of-bounds access accepted")
	}
	// addr+offset overflow must not wrap.
	if m.InBounds(0xFFFFFFFF, 0xFFFFFFFF, 8) {
		t.Error("address overflow accepted")
	}
	if m.Grow(0) != 2 {
		t.Error("zero grow should return current size")
	}
}

func TestProbeSet(t *testing.T) {
	s := NewProbeSet(256)
	p1 := &CounterProbe{}
	p2 := &CounterProbe{}
	s.Insert(10, p1)
	s.Insert(200, p2)
	if !s.HasAt(10) || !s.HasAt(200) || s.HasAt(11) {
		t.Error("bitmap lookup wrong")
	}
	if len(s.PCs()) != 2 || s.PCs()[0] != 10 {
		t.Errorf("PCs = %v", s.PCs())
	}
	s.Remove(10)
	if s.HasAt(10) || s.Empty() {
		t.Error("remove broken")
	}
	s.Remove(200)
	if !s.Empty() {
		t.Error("set should be empty")
	}
}

func TestProbeFireAll(t *testing.T) {
	s := NewProbeSet(64)
	c := &CounterProbe{}
	s.Insert(5, c)
	ctx := &Context{Stack: NewValueStack(16, true), CountStats: true}
	fi := FrameInfo{Func: &FuncInst{}, VFP: 0, SP: 4}
	s.FireAll(ctx, fi, 5)
	s.FireAll(ctx, fi, 5)
	if c.Count != 2 {
		t.Errorf("count = %d", c.Count)
	}
	if ctx.Stats.ProbeFires != 2 {
		t.Errorf("stats fires = %d", ctx.Stats.ProbeFires)
	}
}

func TestAccessor(t *testing.T) {
	ctx := &Context{Stack: NewValueStack(16, true)}
	ctx.Stack.Slots[0] = 11 // local 0
	ctx.Stack.Slots[1] = 22 // operand 0
	ctx.Stack.Slots[2] = 33 // operand 1 (top)
	f := &FuncInst{Info: &validate.FuncInfo{LocalTypes: []wasm.ValueType{wasm.I32}}}
	a := &Accessor{Ctx: ctx, Frame: FrameInfo{Func: f, VFP: 0, SP: 3, PC: 9}}
	if a.Local(0) != 11 || a.Operand(0) != 22 || a.Top() != 33 {
		t.Error("accessor reads wrong slots")
	}
	if a.StackHeight() != 2 || a.PC() != 9 {
		t.Error("accessor metadata wrong")
	}
}

func TestCheckStack(t *testing.T) {
	ctx := &Context{Stack: NewValueStack(128, false), MaxDepth: 4}
	if err := ctx.CheckStack(0, 32, 0); err != nil {
		t.Errorf("fits but rejected: %v", err)
	}
	if err := ctx.CheckStack(100, 32, 0); err == nil {
		t.Error("overflow accepted")
	}
	ctx.Depth = 4
	if err := ctx.CheckStack(0, 1, 0); err == nil {
		t.Error("depth overflow accepted")
	}
}

func TestFramePushPop(t *testing.T) {
	ctx := &Context{}
	idx := ctx.PushFrame(FrameInfo{VFP: 1})
	ctx.PushFrame(FrameInfo{VFP: 2})
	if len(ctx.Frames) != 2 || ctx.Frames[idx].VFP != 1 {
		t.Error("push broken")
	}
	ctx.PopFrame()
	if len(ctx.Frames) != 1 {
		t.Error("pop broken")
	}
}

func TestTagModeStrings(t *testing.T) {
	want := map[TagMode]string{
		TagsNone: "notags", TagsEager: "eagertags", TagsEagerOperands: "eagertags-o",
		TagsEagerLocals: "eagertags-l", TagsOnDemand: "on-demand", TagsLazy: "lazytags",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d -> %q, want %q", m, m.String(), s)
		}
	}
}

func TestTrapError(t *testing.T) {
	trap := NewTrap(TrapDivByZero, 3, 17)
	msg := trap.Error()
	if msg == "" || trap.Kind != TrapDivByZero {
		t.Errorf("trap: %q", msg)
	}
	for k := TrapNone; k <= TrapInterrupted; k++ {
		if k.String() == "" {
			t.Errorf("trap kind %d has no name", k)
		}
	}
}

func TestInterruptFlag(t *testing.T) {
	ctx := &Context{}
	if ctx.Interrupted() {
		t.Fatal("nil interrupt flag must read as not interrupted")
	}
	ctx.Interrupt = new(InterruptFlag)
	if ctx.Interrupted() {
		t.Fatal("fresh flag must be clear")
	}
	ctx.Interrupt.Set()
	if !ctx.Interrupted() {
		t.Fatal("set flag not observed")
	}
	ctx.Interrupt.Clear()
	if ctx.Interrupted() {
		t.Fatal("cleared flag still observed")
	}
}

func TestWriteTrackingMarkAndReset(t *testing.T) {
	m := NewMemory(wasm.Limits{Min: 4, Max: 4, HasMax: true}) // 256 KiB = 64 granules
	snapshot := make([]byte, len(m.Data))
	for i := range m.Data {
		m.Data[i] = byte(i * 7)
		snapshot[i] = byte(i * 7)
	}
	m.EnableWriteTracking()
	if !m.WriteTracking() || m.DirtyGranules() != 0 {
		t.Fatalf("tracking = %v, dirty = %d", m.WriteTracking(), m.DirtyGranules())
	}

	// One write in granule 0, one straddling the granule 2/3 boundary.
	m.Mark(100, 0, 8)
	m.Data[100] = 0xFF
	m.Mark(3*DirtyGranule-4, 0, 8)
	m.Data[3*DirtyGranule-4] = 0xEE
	m.Data[3*DirtyGranule+3] = 0xDD
	if m.DirtyGranules() != 3 {
		t.Fatalf("dirty granules = %d, want 3", m.DirtyGranules())
	}
	// Re-marking the same granule must not double count.
	m.Mark(101, 3, 1)
	if m.DirtyGranules() != 3 {
		t.Fatalf("re-mark counted twice: %d", m.DirtyGranules())
	}

	copied, full := m.ResetTo(snapshot)
	if full {
		t.Fatal("sparse reset took the full-wipe path")
	}
	if copied != 3*DirtyGranule {
		t.Fatalf("copied %d bytes, want %d", copied, 3*DirtyGranule)
	}
	if m.DirtyGranules() != 0 {
		t.Fatalf("dirty granules after reset = %d", m.DirtyGranules())
	}
	for i := range m.Data {
		if m.Data[i] != snapshot[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, m.Data[i], snapshot[i])
		}
	}
}

func TestWriteTrackingFullWipeThreshold(t *testing.T) {
	m := NewMemory(wasm.Limits{Min: 1, Max: 1, HasMax: true}) // 16 granules
	snapshot := make([]byte, len(m.Data))
	m.EnableWriteTracking()
	// Dirty half the granules: per-granule replay loses, full wipe runs.
	for g := 0; g < 8; g++ {
		m.Mark(uint32(g*DirtyGranule), 0, 1)
		m.Data[g*DirtyGranule] = 1
	}
	if _, full := m.ResetTo(snapshot); !full {
		t.Error("at-threshold reset did not take the full-wipe path")
	}
	for i := range m.Data {
		if m.Data[i] != 0 {
			t.Fatalf("byte %d not restored", i)
		}
	}
}

func TestWriteTrackingGrowForcesFullReset(t *testing.T) {
	m := NewMemory(wasm.Limits{Min: 1, Max: 4, HasMax: true})
	snapshot := make([]byte, len(m.Data))
	m.EnableWriteTracking()
	if m.Grow(2) != 1 {
		t.Fatal("grow failed")
	}
	if !m.Grown() {
		t.Error("grow did not invalidate granule accounting")
	}
	// Writes into the grown region must not panic and must be undone.
	m.Mark(2*wasm.PageSize, 0, 8)
	m.Data[2*wasm.PageSize] = 9
	copied, full := m.ResetTo(snapshot)
	if !full || copied != len(snapshot) {
		t.Fatalf("reset after grow: copied=%d full=%v", copied, full)
	}
	if len(m.Data) != len(snapshot) || m.Pages() != 1 {
		t.Fatalf("memory not restored to snapshot shape: %d bytes, %d pages",
			len(m.Data), m.Pages())
	}
	if m.Grown() {
		t.Error("grown flag survived reset")
	}
}

func TestWriteTrackingMarkAll(t *testing.T) {
	m := NewMemory(wasm.Limits{Min: 1, Max: 1, HasMax: true})
	snapshot := make([]byte, len(m.Data))
	m.EnableWriteTracking()
	m.Data[77] = 1 // host write without Mark
	m.MarkAll()
	if _, full := m.ResetTo(snapshot); !full {
		t.Error("MarkAll did not force a full reset")
	}
	if m.Data[77] != 0 {
		t.Error("host write survived reset")
	}
}

func TestResetToWithoutTracking(t *testing.T) {
	m := NewMemory(wasm.Limits{Min: 1, Max: 1, HasMax: true})
	snapshot := make([]byte, len(m.Data))
	m.Data[5] = 42
	if copied, full := m.ResetTo(snapshot); !full || copied != len(snapshot) {
		t.Error("untracked memory must full-wipe")
	}
	if m.Data[5] != 0 {
		t.Error("reset without tracking did not restore")
	}
}

func TestClearWrittenFromZero(t *testing.T) {
	m := NewMemory(wasm.Limits{Min: 4}) // 64 granules
	m.TrackFromZero()
	// Sparse: three granules, one write straddling granules 2|3.
	for _, at := range []int{100, 3*DirtyGranule - 4} {
		m.Mark(uint32(at), 0, 8)
		for i := at; i < at+8; i++ {
			m.Data[i] = 0xEE
		}
	}
	if !m.ClearWritten() || m.DirtyGranules() != 0 {
		t.Fatalf("sparse clear refused or left %d dirty granules", m.DirtyGranules())
	}
	// Full: half the granules dirty takes the whole-buffer path.
	for g := 0; g < 32; g++ {
		m.Mark(uint32(g*DirtyGranule), 0, 1)
		m.Data[g*DirtyGranule] = 1
	}
	if !m.ClearWritten() {
		t.Fatal("full clear refused")
	}
	for i, b := range m.Data {
		if b != 0 {
			t.Fatalf("byte %d = %#x after clear", i, b)
		}
	}
}

func TestClearWrittenRefusesWithoutZeroBaseline(t *testing.T) {
	cases := map[string]func(m *Memory){
		"untracked": func(m *Memory) {},
		"grown": func(m *Memory) {
			m.TrackFromZero()
			m.Grow(1)
		},
		"mark-all": func(m *Memory) {
			m.TrackFromZero()
			m.MarkAll()
		},
		"re-baselined": func(m *Memory) {
			m.TrackFromZero()
			m.EnableWriteTracking()
		},
		"reset-to-snapshot": func(m *Memory) {
			m.TrackFromZero()
			m.ResetTo(make([]byte, len(m.Data)))
		},
	}
	for name, prepare := range cases {
		m := NewMemory(wasm.Limits{Min: 1, Max: 2, HasMax: true})
		prepare(m)
		m.Data[0] = 1
		if m.ClearWritten() || m.Data[0] != 1 {
			t.Errorf("%s: ClearWritten cleared a memory it cannot vouch for", name)
		}
	}
}
