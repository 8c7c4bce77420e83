package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"lattecc/internal/trace"
	"lattecc/internal/workload"
)

// schedMixWorkload exercises every scheduler transition the ready sets
// track: short ALU and hit wake-ups (near wheel), 90-cycle ALU chains and
// DRAM misses (far set), block barriers, divergent loads, and a second
// kernel with a different block shape (compaction at the boundary).
func schedMixWorkload() trace.Workload {
	return &workload.Spec{
		WName: "SCHEDMIX", Cat: trace.CSens,
		Regions: []workload.Region{
			{Start: 0, Lines: 1 << 13, Style: workload.StyleDictFloat, Seed: 0x51, Dict: 64},
			{Start: 1 << 14, Lines: 1 << 13, Style: workload.StyleStrideInt, Seed: 0x52},
		},
		KernelSeq: []workload.KernelSpec{
			{
				Name: "mix-a", Blocks: 20, WarpsPerBlock: 8,
				Phases: []workload.Phase{
					{Kind: workload.PhaseReuse, Region: 0, Iters: 60, ALU: 2, ALULat: 3, WSLines: 16},
					{Kind: workload.PhaseCompute, Iters: 6, ALU: 3, ALULat: 90},
					{Kind: workload.PhaseBarrier, Iters: 1},
					{Kind: workload.PhaseRandom, Region: 1, Iters: 30, ALU: 1, Divergence: 4},
					{Kind: workload.PhaseBarrier, Iters: 1},
					{Kind: workload.PhaseStream, Region: 1, Iters: 20},
				},
			},
			{
				Name: "mix-b", Blocks: 20, WarpsPerBlock: 6,
				Phases: []workload.Phase{
					{Kind: workload.PhaseReuse, Region: 1, Iters: 50, ALU: 1, WSLines: 8},
					{Kind: workload.PhaseCompute, Iters: 4, ALU: 2, ALULat: 70},
					{Kind: workload.PhaseStore, Region: 0, Iters: 10, ALU: 1},
				},
			},
		},
	}
}

// TestSchedulerStateHashPinned pins end-to-end StateHashes for both
// scheduling policies at the default occupancy (48 warps, 2 schedulers,
// so one ready-set word per scheduler) and at 96 warps on one scheduler
// (two words). The values were recorded from the list-scan scheduler
// the ready sets replaced; any change in pick order, Equation 4 readiness
// accounting or fast-forward shows up here.
func TestSchedulerStateHashPinned(t *testing.T) {
	want := map[string]uint64{
		"GTO/48x2/SCHEDMIX": 0x81237293b98ca916,
		"RR/48x2/SCHEDMIX":  0x16aa700756a645c4,
		"GTO/96x1/SCHEDMIX": 0x1259428a35b8c231,
		"RR/96x1/SCHEDMIX":  0x77066ccd5dd51220,
		"GTO/48x2/SS":       0xc12a4a5e138430f8,
		"RR/48x2/SS":        0x468877b3b457ae44,
		"GTO/96x1/SS":       0x5d748cea5981c648,
		"RR/96x1/SS":        0xb19da0e9c45758ed,
	}
	ss, err := workload.ByName("SS")
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []struct {
		name string
		kind SchedulerKind
	}{{"GTO", SchedGTO}, {"RR", SchedRR}} {
		for _, shape := range []struct{ warps, scheds int }{{48, 2}, {96, 1}} {
			for _, w := range []trace.Workload{schedMixWorkload(), ss} {
				cfg := smallConfig()
				cfg.NumSMs = 1
				cfg.Scheduler = pol.kind
				cfg.MaxWarpsPerSM = shape.warps
				cfg.SchedulersPerSM = shape.scheds
				cfg.MaxBlocksPerSM = 16
				cfg.MaxInstructions = 80_000
				name := fmt.Sprintf("%s/%dx%d/%s", pol.name, shape.warps, shape.scheds, w.Name())
				got := run(t, cfg, w, latteFactory).StateHash()
				if got != want[name] {
					t.Errorf("%s: StateHash %#x, want %#x", name, got, want[name])
				}
			}
		}
	}
}

// TestWarpPositionsStayInAgeOrder checks the invariant GTO's lowest-bit
// pick relies on: in every scheduler, position order is warp-id (age)
// order, and each warp's pos is its index, across block launches,
// retirements that leave holes, and the compaction of drained blocks.
func TestWarpPositionsStayInAgeOrder(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxWarpsPerSM, cfg.SchedulersPerSM, cfg.MaxBlocksPerSM = 96, 3, 16
	w := testWorkload{name: "age", blocks: 1 << 20, warps: 5, iters: 1, alu: 1, wsLines: 1, spread: 1}
	k := w.Kernels()[0]
	s := New(cfg, w, baselineFactory).sms[0]
	rng := rand.New(rand.NewSource(1))
	block := 0
	for round := 0; round < 500; round++ {
		for s.launchBlock(k, block) {
			block++
		}
		for si, ws := range s.schedWarps {
			if s.scheds[si].n != len(ws) {
				t.Fatalf("round %d: scheduler %d has %d positions for %d warps", round, si, s.scheds[si].n, len(ws))
			}
			for p, wp := range ws {
				if wp.pos != p || p > 0 && ws[p-1].id >= wp.id {
					t.Fatalf("round %d: scheduler %d position %d holds warp %d (pos %d) after warp %d",
						round, si, p, wp.id, wp.pos, ws[max(p-1, 0)].id)
				}
			}
		}
		// Retire a few random warps; a block whose last warp retires is
		// compacted away, the others leave holes.
		for n := 1 + rng.Intn(8); n > 0; n-- {
			if ws := s.slots[rng.Intn(len(s.slots))].warps; len(ws) > 0 {
				s.retire(&ws[rng.Intn(len(ws))], uint64(round))
			}
		}
	}
	if block < 100 {
		t.Fatalf("only %d blocks launched; compaction never freed room", block)
	}
}
