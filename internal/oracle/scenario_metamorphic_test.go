package oracle

import (
	"bytes"
	"fmt"
	"testing"

	"lattecc/internal/core"
	"lattecc/internal/modes"
	"lattecc/internal/policy"
	"lattecc/internal/sim"
	"lattecc/internal/trace"
	"lattecc/internal/tracefile"
	"lattecc/internal/workload"
)

// Metamorphic properties of the scenario engine: relations that must
// hold between runs on transformed workload specs, without knowing the
// correct output of either run.

// scnConfig is the small machine the scenario metamorphic tests run on.
func scnConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.NumSMs = 2
	cfg.MaxInstructions = 40_000
	return cfg
}

// scnRegions builds two regions with sharply different compressibility
// plus a third for flip targets.
func scnRegions() []workload.Region {
	return []workload.Region{
		{Start: 0, Lines: 1 << 12, Style: workload.StyleDictFloat, Seed: 0x51, Dict: 96},
		{Start: 1 << 16, Lines: 1 << 12, Style: workload.StyleRandom, Seed: 0x52},
		{Start: 1 << 17, Lines: 1 << 11, Style: workload.StyleStrideInt, Seed: 0x53},
	}
}

func latteFactory(n int) modes.Controller { return core.New(core.DefaultConfig(n)) }

func runScn(t *testing.T, spec *workload.Spec, f sim.ControllerFactory) sim.Result {
	t.Helper()
	return sim.New(scnConfig(), spec, f).Run()
}

// neutralHash strips the label-carrying fields (workload name, kernel
// names) from a result and hashes the rest — the invariant part under a
// pure relabeling.
func neutralHash(r sim.Result) uint64 {
	r.Workload = "W"
	ks := make([]sim.KernelResult, len(r.Kernels))
	copy(ks, r.Kernels)
	for i := range ks {
		ks[i].Name = fmt.Sprintf("k%d", i)
	}
	r.Kernels = ks
	return r.StateHash()
}

// TestMetamorphicFlipDegeneracy: the flip mechanism must be exactly the
// identity in its two degenerate configurations — FlipEvery = 0
// (disabled) and FlipEvery >= Iters (the first flip boundary is never
// reached) — and when FlipRegion == Region (flipping to the same
// target). All three must be bit-identical to the un-flipped spec under
// the full adaptive controller.
func TestMetamorphicFlipDegeneracy(t *testing.T) {
	const iters = 900
	mk := func(flipEvery, flipRegion int) *workload.Spec {
		return &workload.Spec{
			WName: "flip-degen", Cat: trace.CSens, Regions: scnRegions(),
			KernelSeq: []workload.KernelSpec{{
				Name: "k", Blocks: 6, WarpsPerBlock: 3,
				Phases: []workload.Phase{{
					Kind: workload.PhaseReuse, Region: 0, Iters: iters,
					ALU: 2, WSLines: 16,
					FlipEvery: flipEvery, FlipRegion: flipRegion,
				}},
			}},
		}
	}
	base := runScn(t, mk(0, 0), latteFactory).StateHash()
	for _, tc := range []struct {
		name                  string
		flipEvery, flipRegion int
	}{
		{"never-reached", iters, 1},
		{"beyond-iters", iters * 4, 1},
		{"same-target", 10, 0},
	} {
		if got := runScn(t, mk(tc.flipEvery, tc.flipRegion), latteFactory).StateHash(); got != base {
			t.Errorf("%s: FlipEvery=%d FlipRegion=%d changed StateHash %#x -> %#x; flip must be identity here",
				tc.name, tc.flipEvery, tc.flipRegion, base, got)
		}
	}
	// Sanity that the probe itself bites: an actual flip to the random
	// region must perturb the run, otherwise the degeneracy checks above
	// are vacuous.
	if got := runScn(t, mk(40, 1), latteFactory).StateHash(); got == base {
		t.Fatal("FlipEvery=40 to the random region left StateHash unchanged — flip mechanism inert?")
	}
}

// TestMetamorphicKernelPrefixInvariance: kernels execute strictly in
// sequence, so appending a kernel must not change anything the machine
// did before the boundary — the recorded access trace of [K1] must be a
// byte prefix of the recorded access trace of [K1, K2].
func TestMetamorphicKernelPrefixInvariance(t *testing.T) {
	regions := scnRegions()
	k1 := workload.KernelSpec{
		Name: "k1", Blocks: 4, WarpsPerBlock: 2,
		Phases: []workload.Phase{{Kind: workload.PhaseReuse, Region: 0, Iters: 300, ALU: 1, WSLines: 12}},
	}
	k2 := workload.KernelSpec{
		Name: "k2", Blocks: 4, WarpsPerBlock: 2,
		Phases: []workload.Phase{{Kind: workload.PhaseStream, Region: 1, Iters: 200}},
	}
	capture := func(kernels []workload.KernelSpec) []byte {
		var buf bytes.Buffer
		tw, err := tracefile.NewWriter(&buf, "PFX")
		if err != nil {
			t.Fatal(err)
		}
		cfg := scnConfig()
		cfg.Trace = tw
		spec := &workload.Spec{WName: "prefix", Cat: trace.CSens, Regions: regions, KernelSeq: kernels}
		sim.New(cfg, spec, latteFactory).Run()
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	short := capture([]workload.KernelSpec{k1})
	full := capture([]workload.KernelSpec{k1, k2})
	if len(full) <= len(short) {
		t.Fatalf("appending k2 did not extend the trace (%d vs %d bytes)", len(full), len(short))
	}
	if !bytes.HasPrefix(full, short) {
		t.Fatalf("trace of [k1] (%d bytes) is not a prefix of trace of [k1,k2] (%d bytes): appending a kernel retroactively changed earlier accesses",
			len(short), len(full))
	}
}

// TestMetamorphicTraceRelabelInvariance: renaming a trace-corpus entry
// is a pure relabeling — two replay workloads packaged from the same
// access stream under different names must behave identically in every
// field except the labels themselves.
func TestMetamorphicTraceRelabelInvariance(t *testing.T) {
	regions := scnRegions()
	spec := &workload.Spec{
		WName: "relabel-src", Cat: trace.CSens, Regions: regions,
		KernelSeq: []workload.KernelSpec{{
			Name: "k", Blocks: 4, WarpsPerBlock: 2,
			Phases: []workload.Phase{
				{Kind: workload.PhaseReuse, Region: 0, Iters: 250, ALU: 1, WSLines: 10},
				{Kind: workload.PhaseStore, Region: 2, Iters: 60},
			},
		}},
	}
	load := func(name string) *tracefile.ReplayWorkload {
		var buf bytes.Buffer
		tw, err := tracefile.NewWriter(&buf, name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := scnConfig()
		cfg.Trace = tw
		sim.New(cfg, spec, latteFactory).Run()
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		meta, err := tracefile.EncodeCorpusMeta(tracefile.CorpusEntry{
			Name: name, Source: spec.WName, Category: spec.Cat,
			Blocks: 4, WarpsPerBlock: 2, ALUGapCap: 8, Regions: regions,
		}, buf.Bytes(), tw.Count())
		if err != nil {
			t.Fatal(err)
		}
		rw, err := tracefile.LoadWorkloadBytes(buf.Bytes(), meta)
		if err != nil {
			t.Fatal(err)
		}
		return rw
	}
	a := sim.New(scnConfig(), load("RWA"), latteFactory).Run()
	b := sim.New(scnConfig(), load("RWB"), latteFactory).Run()
	if a.StateHash() == b.StateHash() {
		t.Fatal("differently named replay workloads hashed identically — names are no longer part of the result?")
	}
	if ha, hb := neutralHash(a), neutralHash(b); ha != hb {
		t.Fatalf("relabeling a trace-corpus entry changed behaviour beyond the labels: neutral hash %#x vs %#x", ha, hb)
	}
}

// TestMetamorphicKernelPermutation: for an engineered pair of kernels
// with disjoint data regions, working sets far below cache capacity, and
// a state-free static policy, execution order must not change aggregate
// machine behaviour — each kernel runs against effectively cold, non-
// conflicting state either way.
func TestMetamorphicKernelPermutation(t *testing.T) {
	regions := scnRegions()
	none := func(int) modes.Controller { return policy.NewStatic(modes.None, "perm-none", 1024, 8) }
	ka := workload.KernelSpec{
		Name: "ka", Blocks: 4, WarpsPerBlock: 2,
		Phases: []workload.Phase{{Kind: workload.PhaseReuse, Region: 0, Iters: 200, ALU: 1, WSLines: 4}},
	}
	kb := workload.KernelSpec{
		Name: "kb", Blocks: 4, WarpsPerBlock: 2,
		Phases: []workload.Phase{{Kind: workload.PhaseReuse, Region: 1, Iters: 200, ALU: 1, WSLines: 4}},
	}
	run := func(kernels []workload.KernelSpec) sim.Result {
		spec := &workload.Spec{WName: "perm", Cat: trace.CSens, Regions: regions, KernelSeq: kernels}
		return sim.New(scnConfig(), spec, none).Run()
	}
	fwd := run([]workload.KernelSpec{ka, kb})
	rev := run([]workload.KernelSpec{kb, ka})

	if fwd.Cycles != rev.Cycles || fwd.Instructions != rev.Instructions {
		t.Errorf("permuting independent kernels changed cycles/instructions: %d/%d vs %d/%d",
			fwd.Cycles, fwd.Instructions, rev.Cycles, rev.Instructions)
	}
	if fwd.Cache != rev.Cache {
		t.Errorf("permuting independent kernels changed cache stats:\n%+v\n%+v", fwd.Cache, rev.Cache)
	}
	if fwd.Mem != rev.Mem {
		t.Errorf("permuting independent kernels changed memory stats:\n%+v\n%+v", fwd.Mem, rev.Mem)
	}
	// Per-kernel intervals must match under the name-keyed pairing.
	byName := func(r sim.Result) map[string]uint64 {
		out := make(map[string]uint64, len(r.Kernels))
		for _, k := range r.Kernels {
			out[k.Name] = k.Cycles
		}
		return out
	}
	fk, rk := byName(fwd), byName(rev)
	for _, name := range []string{"ka", "kb"} {
		if fk[name] != rk[name] {
			t.Errorf("kernel %s: cycles depend on launch order (%d vs %d)", name, fk[name], rk[name])
		}
	}
}
