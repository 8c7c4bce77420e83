package policy

import (
	"testing"

	"lattecc/internal/modes"
)

func TestStaticModes(t *testing.T) {
	for _, m := range modes.All() {
		s := NewStatic(m, "p-"+m.String(), 256, 10)
		if s.Name() != "p-"+m.String() {
			t.Errorf("name = %q", s.Name())
		}
		for set := 0; set < 32; set++ {
			if s.InsertMode(set) != m {
				t.Fatalf("static %v returned %v for set %d", m, s.InsertMode(set), set)
			}
		}
		if s.CurrentMode() != m {
			t.Fatal("CurrentMode must match the static mode")
		}
	}
}

func TestStaticNonHighCapNeverDirects(t *testing.T) {
	s := NewStatic(modes.LowLat, "bdi", 4, 2)
	for i := 0; i < 100; i++ {
		d := s.RecordAccess(0, true, modes.LowLat, 0, uint64(i))
		if d.FlushHighCap || d.RebuildHighCap || len(d.FlushMismatch) > 0 {
			t.Fatalf("BDI static issued directive %+v", d)
		}
	}
}

func TestStaticHighCapRebuildCadence(t *testing.T) {
	epLen, eps := uint64(4), uint64(3)
	s := NewStatic(modes.HighCap, "sc", epLen, eps)
	var firstRebuild, periodFlushes int
	for i := uint64(1); i <= 3*epLen*eps; i++ {
		d := s.RecordAccess(0, true, modes.HighCap, 0, i)
		if d.RebuildHighCap && !d.FlushHighCap {
			firstRebuild++
			if i != epLen {
				t.Fatalf("first rebuild at access %d, want %d", i, epLen)
			}
		}
		if d.FlushHighCap {
			if i%(epLen*eps) != 0 {
				t.Fatalf("period flush at access %d", i)
			}
			periodFlushes++
		}
	}
	if firstRebuild != 1 {
		t.Fatalf("first-EP rebuilds = %d, want 1", firstRebuild)
	}
	if periodFlushes != 3 {
		t.Fatalf("period flushes = %d, want 3", periodFlushes)
	}
}

func TestScheduledSwitchesAtKernelBoundaries(t *testing.T) {
	sched := []modes.Mode{modes.None, modes.HighCap, modes.LowLat}
	s := NewScheduled("Kernel-OPT", sched, 256, 10)
	if s.Name() != "Kernel-OPT" {
		t.Fatal("name")
	}
	for ki, want := range sched {
		s.KernelStart(ki)
		if s.InsertMode(0) != want {
			t.Fatalf("kernel %d mode = %v, want %v", ki, s.InsertMode(0), want)
		}
	}
	// Kernels past the schedule reuse the last entry.
	s.KernelStart(99)
	if s.InsertMode(0) != modes.LowLat {
		t.Fatal("overflow kernels must use the last scheduled mode")
	}
}

func TestScheduledEmptyScheduleDefaultsToNone(t *testing.T) {
	s := NewScheduled("ko", nil, 256, 10)
	if s.InsertMode(0) != modes.None {
		t.Fatal("empty schedule must default to the baseline")
	}
}

func TestScheduledMaintainsCodeBook(t *testing.T) {
	epLen, eps := uint64(8), uint64(2)
	s := NewScheduled("ko", []modes.Mode{modes.HighCap}, epLen, eps)
	sawFirst, sawPeriod := false, false
	for i := uint64(1); i <= 2*epLen*eps; i++ {
		d := s.RecordAccess(0, false, modes.None, 0, i)
		if d.RebuildHighCap && !d.FlushHighCap {
			sawFirst = true
		}
		if d.FlushHighCap && d.RebuildHighCap {
			sawPeriod = true
		}
	}
	if !sawFirst || !sawPeriod {
		t.Fatalf("scheduled policy must maintain the SC code book (first=%v period=%v)", sawFirst, sawPeriod)
	}
}

func TestScheduledWithoutHighCapNeverDirects(t *testing.T) {
	s := NewScheduled("ko", []modes.Mode{modes.None, modes.LowLat}, 4, 2)
	if s.UsesHighCap() {
		t.Fatal("a schedule without HighCap must not claim the high-capacity codec")
	}
	for ki := 0; ki < 2; ki++ {
		s.KernelStart(ki)
		for i := 0; i < 100; i++ {
			d := s.RecordAccess(0, true, modes.LowLat, 0, uint64(i))
			if d.FlushHighCap || d.RebuildHighCap || len(d.FlushMismatch) > 0 {
				t.Fatalf("kernel %d: schedule without HighCap issued directive %+v", ki, d)
			}
		}
	}
}

func TestUsesHighCap(t *testing.T) {
	for _, m := range modes.All() {
		if got, want := NewStatic(m, "s", 4, 2).UsesHighCap(), m == modes.HighCap; got != want {
			t.Errorf("Static(%v).UsesHighCap() = %v, want %v", m, got, want)
		}
	}
	if !NewScheduled("ko", []modes.Mode{modes.LowLat, modes.HighCap}, 4, 2).UsesHighCap() {
		t.Error("a schedule naming HighCap must use the high-capacity codec")
	}
}

func TestAdaptiveBaselineConstructors(t *testing.T) {
	hc := NewAdaptiveHitCount(32)
	if hc.Name() != "Adaptive-Hit-Count" {
		t.Fatalf("name = %q", hc.Name())
	}
	cmp := NewAdaptiveCMP(32)
	if cmp.Name() != "Adaptive-CMP" {
		t.Fatalf("name = %q", cmp.Name())
	}
}

func TestControllerInterfaceCompliance(t *testing.T) {
	var _ modes.Controller = NewStatic(modes.None, "x", 1, 1)
	var _ modes.Controller = NewScheduled("x", nil, 1, 1)
	var _ modes.Snapshotter = NewStatic(modes.None, "x", 1, 1)
	var _ modes.Snapshotter = NewScheduled("x", nil, 1, 1)
}
