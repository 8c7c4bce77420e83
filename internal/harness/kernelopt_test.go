package harness

import (
	"reflect"
	"testing"

	"lattecc/internal/modes"
	"lattecc/internal/sim"
	"lattecc/internal/trace"
	"lattecc/internal/workload"
)

// assertScheduledIsStatic simulates w under policy.Scheduled with one
// mode for every kernel — simulateOn, not the harness's uniform-schedule
// shortcut — and requires the result, relabelled, to equal that mode's
// static run field by field.
func assertScheduledIsStatic(t *testing.T, cfg sim.Config, w trace.Workload) {
	t.Helper()
	for _, st := range oracleStatics {
		want, err := simulateOn(cfg, w, st.p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		schedule := make([]modes.Mode, len(w.Kernels()))
		for i := range schedule {
			schedule[i] = st.m
		}
		got, err := simulateOn(cfg, w, KernelOpt, schedule, nil)
		if err != nil {
			t.Fatal(err)
		}
		got.Policy = want.Policy
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Scheduled(%v) differs from %s: %d cycles, %d decomp-buffer hits, %d flushed; want %d, %d, %d",
				w.Name(), st.m, st.p, got.Cycles, got.Cache.DecompBufferHits, got.Cache.FlushedLines,
				want.Cycles, want.Cache.DecompBufferHits, want.Cache.FlushedLines)
		}
	}
}

// TestUniformScheduleIsItsStatic pins the equivalence the Kernel-OPT
// shortcut rests on, for every workload on the tiny machine.
func TestUniformScheduleIsItsStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every workload six times")
	}
	cfg := tinyConfig()
	cfg.MaxInstructions = raceScaled(cfg.MaxInstructions)
	for _, name := range workload.Names() {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			assertScheduledIsStatic(t, cfg, w)
		})
	}
}

// TestUniformScheduleIsItsStaticMultiKernel covers a custom workload
// whose three kernels each pass a boundary to Scheduled.KernelStart.
func TestUniformScheduleIsItsStaticMultiKernel(t *testing.T) {
	kernel := func(name string, region int, kind workload.PhaseKind) workload.KernelSpec {
		return workload.KernelSpec{
			Name: name, Blocks: 4, WarpsPerBlock: 4,
			Phases: []workload.Phase{{Kind: kind, Region: region, Iters: 150, ALU: 1, WSLines: 16}},
		}
	}
	w := &workload.Spec{
		WName: "custom3", Cat: 0,
		Regions: []workload.Region{
			{Start: 0, Lines: 512, Style: workload.StyleStrideInt, Seed: 1},
			{Start: 512, Lines: 512, Style: workload.StyleDictFloat, Seed: 2},
		},
		KernelSeq: []workload.KernelSpec{
			kernel("stride", 0, workload.PhaseReuse),
			kernel("dict", 1, workload.PhaseReuse),
			kernel("stream", 0, workload.PhaseStream),
		},
	}
	assertScheduledIsStatic(t, tinyConfig(), w)
}

// TestUniformScheduleIsItsStaticDecompBuffer: with the decompressed-line
// buffer on, a code-book rebuild that clears the buffer is visible in
// the result, so a schedule without HighCap must issue no rebuilds.
func TestUniformScheduleIsItsStaticDecompBuffer(t *testing.T) {
	cfg := tinyConfig()
	cfg.Cache.DecompBufferEntries = 8
	w, err := workload.ByName("FW")
	if err != nil {
		t.Fatal(err)
	}
	assertScheduledIsStatic(t, cfg, w)
}

// TestKernelOptUniformServesStaticCopy: a uniform Kernel-OPT reads the
// three statics (three cache hits, no fourth Run), counts as one fresh
// simulation, equals the simulated schedule, and shares no memory with
// the cached static it copies.
func TestKernelOptUniformServesStaticCopy(t *testing.T) {
	cfg := tinyConfig()
	v := Variant{SampleSeries: true}
	s := NewSuite(cfg)
	for _, st := range oracleStatics {
		s.MustRun("FW", st.p, v)
	}
	hits, sims := s.CacheHits(), s.Simulations()
	ko := s.MustRun("FW", KernelOpt, v)
	if got := s.CacheHits() - hits; got != 3 {
		t.Errorf("Kernel-OPT made %d cache hits, want 3 (one per static)", got)
	}
	if got := s.Simulations() - sims; got != 1 {
		t.Errorf("Kernel-OPT counted %d simulations, want 1", got)
	}

	schedule, err := s.kernelOptSchedule("FW", v)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range schedule {
		if m != schedule[0] {
			t.Fatalf("FW schedule %v mixes modes; this test needs a uniform one", schedule)
		}
	}
	w, err := workload.ByName("FW")
	if err != nil {
		t.Fatal(err)
	}
	simCfg := cfg
	simCfg.SampleEvery = 512
	want, err := simulateOn(simCfg, w, KernelOpt, schedule, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ko, want) {
		t.Fatalf("served Kernel-OPT %#x differs from the simulated schedule %v (%#x)", ko.StateHash(), schedule, want.StateHash())
	}

	var static Policy
	for _, st := range oracleStatics {
		if st.m == schedule[0] {
			static = st.p
		}
	}
	before := s.MustRun("FW", static, v).StateHash()
	ko.Kernels[0].Cycles++
	ko.ToleranceSeries.Add(1<<40, 1)
	ko.CapacitySeries.Add(1<<40, 1)
	if after := s.MustRun("FW", static, v).StateHash(); after != before {
		t.Fatal("editing the Kernel-OPT result changed the cached static it was copied from")
	}
}
